#include "net/tcp_server.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/logging.h"

namespace asdf::net {

TcpServer::TcpServer(EventLoop& loop, std::uint16_t port, bool reusePort)
    : loop_(loop),
      listener_(loop, port, reusePort, [this](int fd) { addConnection(fd); }) {
  connections_.reserve(64);
}

TcpServer::~TcpServer() {
  if (reapTimer_ >= 0) loop_.cancelTimer(reapTimer_);
  for (auto& [id, conn] : connections_) {
    loop_.unwatchFd(conn->fd_);
    close(conn->fd_);
  }
  connections_.clear();
  connectionCount_.store(0, std::memory_order_relaxed);
}

void TcpServer::addConnection(int fd) {
  const std::uint64_t id = nextConnId_++;
  auto conn = std::make_unique<Connection>(*this, fd, id);
  conn->lastActivity_ = monotonicSeconds();
  Connection* raw = conn.get();
  connections_.emplace(id, std::move(conn));
  connectionCount_.store(connections_.size(), std::memory_order_relaxed);
  loop_.watchFd(fd, /*wantRead=*/true, /*wantWrite=*/false,
                [this, raw](int, std::uint32_t events) {
                  handleConnection(*raw, events);
                });
}

void TcpServer::handleConnection(Connection& conn, std::uint32_t events) {
  const std::uint64_t id = conn.id_;
  if (events & EventLoop::kClosed) {
    dropConnection(id);
    return;
  }
  if (events & EventLoop::kWritable) {
    flushOutbound(conn);
    if (connections_.find(id) == connections_.end()) return;
  }
  if ((events & EventLoop::kReadable) == 0) return;

  // Cork for the whole read batch: every response the handler queues
  // below accumulates in outbound_ and leaves in one syscall at the
  // flush after the loop.
  conn.corked_ = true;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = read(conn.fd_, buf, sizeof(buf));
    if (n > 0) {
      conn.lastActivity_ = monotonicSeconds();
      if (!conn.decoder_.feed(buf, static_cast<std::size_t>(n))) {
        // Malformed framing: the stream cannot be trusted past this
        // point. Count and drop; the loop (and every other
        // connection) keeps running.
        logWarn("net: dropping connection " + std::to_string(id) + ": " +
                frameErrorName(conn.decoder_.error()));
        connectionsRejected_.fetch_add(1, std::memory_order_relaxed);
        dropConnection(id);
        return;
      }
      dispatchDecoded(conn);
      // The handler may have closed or dropped the connection.
      if (connections_.find(id) == connections_.end()) return;
      continue;
    }
    if (n == 0) {
      // Orderly peer close: flush any responses to the requests it
      // pipelined before closing its write side, then drop.
      conn.corked_ = false;
      conn.closing_ = true;
      flushOutbound(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    dropConnection(id);
    return;
  }
  conn.corked_ = false;
  flushOutbound(conn);
}

void TcpServer::dispatchDecoded(Connection& conn) {
  const std::uint64_t id = conn.id_;
  while (conn.decoder_.next(conn.scratch_)) {
    framesServed_.fetch_add(1, std::memory_order_relaxed);
    if (handler_) {
      try {
        handler_(conn, conn.scratch_);
      } catch (const std::exception& e) {
        conn.sendError(ErrorCode::kInternal, e.what());
      }
    }
    if (connections_.find(id) == connections_.end()) return;
  }
}

void TcpServer::flushOutbound(Connection& conn) {
  if (conn.corked_) return;  // the batch leaves at uncork
  while (conn.outboundHead_ < conn.outbound_.size()) {
    const ssize_t n =
        send(conn.fd_, conn.outbound_.data() + conn.outboundHead_,
             conn.outbound_.size() - conn.outboundHead_, MSG_NOSIGNAL);
    if (n > 0) {
      conn.lastActivity_ = monotonicSeconds();
      conn.outboundHead_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    dropConnection(conn.id_);
    return;
  }
  if (conn.outboundHead_ == conn.outbound_.size()) {
    // Fully drained: reset the head offset, keep the capacity.
    conn.outbound_.clear();
    conn.outboundHead_ = 0;
    if (conn.closing_) {
      dropConnection(conn.id_);
      return;
    }
  }
  updateWriteInterest(conn);
}

void TcpServer::updateWriteInterest(Connection& conn) {
  const bool wantWrite = conn.outboundHead_ < conn.outbound_.size();
  const bool wantRead = !conn.closing_;
  if (wantWrite == conn.watchingWrite_ && wantRead == conn.watchingRead_) {
    return;  // epoll_ctl only on change
  }
  conn.watchingWrite_ = wantWrite;
  conn.watchingRead_ = wantRead;
  loop_.modifyFd(conn.fd_, wantRead, wantWrite);
}

void TcpServer::dropConnection(std::uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  loop_.unwatchFd(it->second->fd_);
  close(it->second->fd_);
  connections_.erase(it);
  connectionCount_.store(connections_.size(), std::memory_order_relaxed);
}

void TcpServer::setIdleTimeout(double seconds) {
  idleTimeoutSeconds_ = seconds;
  if (reapTimer_ >= 0) {
    loop_.cancelTimer(reapTimer_);
    reapTimer_ = -1;
  }
  if (seconds > 0.0) armReapTimer();
}

void TcpServer::armReapTimer() {
  reapTimer_ = loop_.addTimer(std::max(0.05, idleTimeoutSeconds_ / 2.0),
                              [this] {
                                reapTimer_ = -1;
                                reapIdle();
                                if (idleTimeoutSeconds_ > 0.0) armReapTimer();
                              });
}

void TcpServer::reapIdle() {
  const double cutoff = monotonicSeconds() - idleTimeoutSeconds_;
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn->lastActivity_ < cutoff) idle.push_back(id);
  }
  for (const std::uint64_t id : idle) {
    logWarn("net: reaping idle connection " + std::to_string(id));
    connectionsReaped_.fetch_add(1, std::memory_order_relaxed);
    dropConnection(id);
  }
}

void TcpServer::Connection::send(MsgType type, const rpc::Encoder& payload) {
  queueFrame(type, payload.bytes().data(), payload.size());
}

void TcpServer::Connection::sendError(ErrorCode code,
                                      const std::string& message) {
  rpc::Encoder enc;
  enc.putU32(static_cast<std::uint32_t>(code));
  enc.putString(message);
  queueFrame(MsgType::kError, enc.bytes().data(), enc.size());
}

void TcpServer::Connection::queueFrame(MsgType type,
                                       const std::uint8_t* payload,
                                       std::size_t size) {
  const std::size_t queued = outbound_.size() - outboundHead_;
  if (server_.maxOutboundBytes_ != 0 &&
      queued + kFrameHeaderBytes + size > server_.maxOutboundBytes_) {
    // The peer stopped draining its responses: dropping bounds memory
    // (the peer's decoder couldn't survive a truncated stream anyway).
    logWarn("net: dropping connection " + std::to_string(id_) +
            ": outbound buffer over cap");
    server_.connectionsOverflowed_.fetch_add(1, std::memory_order_relaxed);
    server_.dropConnection(id_);
    return;
  }
  if (!corked_ && queued == 0) {
    // Nothing buffered and no batch in progress: scatter-gather the
    // stack header and the payload out in one sendmsg, no copy of the
    // payload next to its header, no outbound_ traffic at all when
    // the socket takes the whole frame (the common case).
    std::uint8_t header[kFrameHeaderBytes];
    encodeFrameHeader(header, type, payload, size);
    iovec iov[2];
    iov[0] = {header, kFrameHeaderBytes};
    iov[1] = {const_cast<std::uint8_t*>(payload), size};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = size > 0 ? 2 : 1;
    std::size_t sent = 0;
    for (;;) {
      const ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (n >= 0) {
        lastActivity_ = monotonicSeconds();
        sent = static_cast<std::size_t>(n);
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      server_.dropConnection(id_);
      return;
    }
    const std::size_t total = kFrameHeaderBytes + size;
    if (sent < total) {  // buffer the unsent tail for writability
      if (sent < kFrameHeaderBytes) {
        outbound_.insert(outbound_.end(), header + sent,
                         header + kFrameHeaderBytes);
        outbound_.insert(outbound_.end(), payload, payload + size);
      } else {
        outbound_.insert(outbound_.end(),
                         payload + (sent - kFrameHeaderBytes),
                         payload + size);
      }
    }
    server_.updateWriteInterest(*this);
    return;
  }
  encodeFrameInto(outbound_, type, payload, size);
  if (!corked_) server_.flushOutbound(*this);
}

void TcpServer::Connection::close() {
  closing_ = true;
  server_.flushOutbound(*this);
}

}  // namespace asdf::net
