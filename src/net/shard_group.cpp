#include "net/shard_group.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace asdf::net {

ShardGroup::ShardGroup(const ShardGroupOptions& options) {
  const int n = std::max(1, options.shards);
  loops_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
  servers_.reserve(static_cast<std::size_t>(n));

  if (options.preferReusePort && n > 1) {
    try {
      servers_.push_back(std::make_unique<TcpServer>(
          *loops_[0], TcpServerOptions{options.port, /*reusePort=*/true,
                                       /*listen=*/true}));
      const std::uint16_t bound = servers_[0]->port();
      for (int i = 1; i < n; ++i) {
        servers_.push_back(std::make_unique<TcpServer>(
            *loops_[static_cast<std::size_t>(i)],
            TcpServerOptions{bound, /*reusePort=*/true, /*listen=*/true}));
      }
      reusePort_ = true;
    } catch (const NetError& e) {
      logWarn(std::string("net: SO_REUSEPORT sharding unavailable (") +
              e.what() + "); falling back to acceptor handoff");
      servers_.clear();
      reusePort_ = false;
    }
  }

  if (servers_.empty()) {
    // Single shard, or handoff fallback: shard 0 owns the listener.
    servers_.push_back(std::make_unique<TcpServer>(
        *loops_[0], TcpServerOptions{options.port, /*reusePort=*/false,
                                     /*listen=*/true}));
    for (int i = 1; i < n; ++i) {
      servers_.push_back(std::make_unique<TcpServer>(
          *loops_[static_cast<std::size_t>(i)],
          TcpServerOptions{servers_[0]->port(), /*reusePort=*/false,
                           /*listen=*/false}));
    }
    if (n > 1) installHandoff();
  }
  port_ = servers_[0]->port();
}

ShardGroup::~ShardGroup() {
  stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ShardGroup::installHandoff() {
  // Shard 0's accept interceptor round-robins raw fds across every
  // shard (keeping its own fair share). The target shard adopts the fd
  // on its own loop thread — connection state never crosses threads.
  servers_[0]->onAccept([this](int fd) {
    const std::size_t target =
        rr_.fetch_add(1, std::memory_order_relaxed) % servers_.size();
    if (target == 0) return false;  // shard 0 keeps this one
    TcpServer* srv = servers_[target].get();
    loops_[target]->post([srv, fd] { srv->adoptFd(fd); });
    return true;
  });
}

void ShardGroup::runOnCaller() {
  threads_.clear();
  for (std::size_t i = 1; i < loops_.size(); ++i) {
    EventLoop* loop = loops_[i].get();
    threads_.emplace_back([loop] { loop->run(); });
  }
  loops_[0]->run();
  // Shard 0 stopped (stop(), or a handler on this shard): bring the
  // rest down and join before returning to the caller.
  stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ShardGroup::stop() {
  for (auto& loop : loops_) loop->stop();
}

bool ShardGroup::answerSession(TcpServer::Connection& conn,
                               const Frame& frame, const HelloAck& ack,
                               const char* daemonName) {
  if (frame.type == MsgType::kHello) {
    rpc::Decoder dec(frame.payload);
    if (dec.getU32() != kProtocolVersion) {
      conn.sendError(ErrorCode::kVersionSkew,
                     "server speaks version " +
                         std::to_string(kProtocolVersion));
      conn.close();
      return true;
    }
    rpc::Encoder enc;
    enc.putU32(kProtocolVersion);
    enc.putU32(static_cast<std::uint32_t>(ack.members));
    enc.putI64(static_cast<std::int64_t>(ack.seed));
    enc.putString(ack.source);
    conn.send(MsgType::kHelloAck, enc);
    return true;
  }
  if (frame.type == MsgType::kShutdown) {
    conn.send(MsgType::kShutdownAck, rpc::Encoder{});
    conn.close();
    logInfo(std::string(daemonName) + ": shutdown requested; exiting");
    stop();
    return true;
  }
  return false;
}

long ShardGroup::framesServed() const {
  long total = 0;
  for (const auto& s : servers_) total += s->framesServed();
  return total;
}

long ShardGroup::connectionsRejected() const {
  long total = 0;
  for (const auto& s : servers_) total += s->connectionsRejected();
  return total;
}

long ShardGroup::connectionsReaped() const {
  long total = 0;
  for (const auto& s : servers_) total += s->connectionsReaped();
  return total;
}

long ShardGroup::connectionsOverflowed() const {
  long total = 0;
  for (const auto& s : servers_) total += s->connectionsOverflowed();
  return total;
}

std::size_t ShardGroup::connectionCount() const {
  std::size_t total = 0;
  for (const auto& s : servers_) total += s->connectionCount();
  return total;
}

}  // namespace asdf::net
