#include "net/framed_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "common/error.h"
#include "common/logging.h"
#include "rpc/rpc_client.h"

namespace asdf::net {
namespace {

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int pollMillis(double remaining) {
  return static_cast<int>(std::max(1.0, remaining * 1000.0));
}

}  // namespace

FramedClient::FramedClient(Options opts)
    : opts_(std::move(opts)), backoffRng_(opts_.backoffSeed) {}

FramedClient::~FramedClient() { disconnect(); }

void FramedClient::disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

void FramedClient::backoffFailure() {
  const double backoff =
      rpc::jitteredBackoff(opts_.backoffBaseSeconds, opts_.backoffMaxSeconds,
                           std::min(failStreak_, 20), backoffRng_);
  ++failStreak_;
  nextDialAllowed_ = monotonicSeconds() + backoff;
}

bool FramedClient::connect() {
  if (fd_ >= 0) return true;
  if (monotonicSeconds() < nextDialAllowed_) {
    ++suppressedDials_;
    return false;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    backoffFailure();
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    backoffFailure();
    return false;
  }
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    close(fd);
    backoffFailure();
    return false;
  }
  if (rc < 0) {
    // Dial in flight: bound it by the per-call deadline.
    const double deadline = monotonicSeconds() + opts_.timeoutSeconds;
    for (;;) {
      const double remaining = deadline - monotonicSeconds();
      if (remaining <= 0) {
        close(fd);
        backoffFailure();
        return false;
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = poll(&pfd, 1, pollMillis(remaining));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) {
        close(fd);
        backoffFailure();
        return false;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        close(fd);
        backoffFailure();
        return false;
      }
      break;
    }
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  decoder_ = FrameDecoder();
  if (everConnected_) ++reconnects_;
  everConnected_ = true;
  return true;
}

bool FramedClient::greet(const std::string& greeting) {
  if (connected()) return true;
  if (!connect()) return false;
  rpc::Encoder hello;
  hello.putU32(kProtocolVersion);
  hello.putString(greeting);
  Frame ack;
  if (call(MsgType::kHello, hello, MsgType::kHelloAck, ack)) {
    try {
      rpc::Decoder dec(ack.payload);
      HelloAck peer;
      const std::uint32_t version = dec.getU32();
      peer.members = static_cast<int>(dec.getU32());
      peer.seed = static_cast<std::uint64_t>(dec.getI64());
      peer.source = dec.getString();
      if (version == kProtocolVersion && peer.members >= 1) {
        peer_ = std::move(peer);
        return true;
      }
    } catch (const RpcError&) {
    }
  }
  disconnect();
  backoffFailure();
  return false;
}

void FramedClient::requestShutdown(const std::string& greeting) {
  if (!greet(greeting)) return;
  Frame ack;
  (void)call(MsgType::kShutdown, rpc::Encoder{}, MsgType::kShutdownAck, ack);
  disconnect();
}

bool FramedClient::call(MsgType request, const rpc::Encoder& payload,
                        MsgType expected, Frame& response) {
  if (fd_ < 0) return false;
  const double deadline = monotonicSeconds() + opts_.timeoutSeconds;

  const std::vector<std::uint8_t> out = encodeFrame(request, payload);
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Throttled peer: wait for writability, never past the deadline.
      const double remaining = deadline - monotonicSeconds();
      if (remaining <= 0) {
        disconnect();
        return false;
      }
      pollfd pfd{fd_, POLLOUT, 0};
      const int ready = poll(&pfd, 1, pollMillis(remaining));
      if (ready < 0 && errno != EINTR) {
        disconnect();
        return false;
      }
      continue;  // deadline re-checked above
    }
    disconnect();
    return false;
  }

  for (;;) {
    Frame frame;
    if (decoder_.next(frame)) {
      if (frame.type == expected) {
        response = std::move(frame);
        failStreak_ = 0;  // a full exchange proves the peer healthy
        nextDialAllowed_ = 0.0;
        return true;
      }
      if (frame.type == MsgType::kError) {
        try {
          rpc::Decoder dec(frame.payload);
          const std::uint32_t code = dec.getU32();
          logWarn("net: " + opts_.peerName + " error " +
                  std::to_string(code) + ": " + dec.getString());
        } catch (const RpcError&) {
        }
        return false;  // connection stays usable: the peer replied
      }
      // Unexpected type (e.g. a stale response after a timeout): a
      // request/response stream this far out of step cannot be
      // trusted — resync by reconnecting.
      disconnect();
      return false;
    }

    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0) {
      disconnect();  // a late response would desync the stream
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, pollMillis(remaining));
    if (ready < 0) {
      if (errno == EINTR) continue;
      disconnect();
      return false;
    }
    if (ready == 0) continue;  // deadline re-checked above

    std::uint8_t buf[65536];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      if (!decoder_.feed(buf, static_cast<std::size_t>(n))) {
        logWarn("net: malformed frame from " + opts_.peerName + ": " +
                frameErrorName(decoder_.error()));
        disconnect();
        return false;
      }
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    disconnect();  // peer closed or hard error
    return false;
  }
}

}  // namespace asdf::net
