#include "net/framed_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/error.h"
#include "common/logging.h"
#include "net/socket.h"
#include "rpc/rpc_client.h"

namespace asdf::net {
namespace {

int pollMillis(double remaining) {
  return static_cast<int>(std::max(1.0, remaining * 1000.0));
}

}  // namespace

FramedClient::FramedClient(Options opts)
    : opts_(std::move(opts)), backoffRng_(opts_.backoffSeed) {
  requireIpv4Host(opts_.host);
}

FramedClient::~FramedClient() { closeLocked(); }

void FramedClient::disconnect() {
  std::lock_guard<std::mutex> lock(mutex_);
  closeLocked();
}

void FramedClient::closeLocked() {
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

bool FramedClient::dialLocked() {
  if (fd_ >= 0) return true;
  if (monotonicSeconds() < nextDialAllowed_) {
    ++suppressedDials_;
    return false;
  }
  bool inProgress = false;
  const int fd = dial(opts_.host, opts_.port, inProgress);
  if (fd < 0) {
    backoffFailure();
    return false;
  }
  // A dial in flight is bounded by the per-call deadline.
  const double deadline = monotonicSeconds() + opts_.timeoutSeconds;
  while (inProgress) {
    const double remaining = deadline - monotonicSeconds();
    pollfd pfd{fd, POLLOUT, 0};
    const int ready =
        remaining > 0 ? poll(&pfd, 1, pollMillis(remaining)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0 || dialError(fd) != 0) {
      close(fd);
      backoffFailure();
      return false;
    }
    break;
  }
  fd_ = fd;
  decoder_ = FrameDecoder();
  if (everConnected_) ++reconnects_;
  everConnected_ = true;
  return true;
}

bool FramedClient::greet() {
  std::lock_guard<std::mutex> lock(mutex_);
  return greetLocked();
}

bool FramedClient::greetLocked() {
  if (fd_ >= 0) return true;
  if (!dialLocked()) return false;
  rpc::Encoder hello;
  hello.putU32(kProtocolVersion);
  hello.putString(opts_.greeting);
  Frame ack;
  if (exchange(MsgType::kHello, hello, MsgType::kHelloAck, ack)) {
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
  closeLocked();
  backoffFailure();
  return false;
}

void FramedClient::requestShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!greetLocked()) return;
  Frame ack;
  (void)exchange(MsgType::kShutdown, rpc::Encoder{}, MsgType::kShutdownAck,
                 ack);
  closeLocked();
}

bool FramedClient::call(MsgType request, const rpc::Encoder& payload,
                        MsgType expected, Frame& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opts_.greeting.empty() && !greetLocked()) return false;
  return exchange(request, payload, expected, response);
}

bool FramedClient::exchange(MsgType request, const rpc::Encoder& payload,
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
        closeLocked();
        return false;
      }
      pollfd pfd{fd_, POLLOUT, 0};
      const int ready = poll(&pfd, 1, pollMillis(remaining));
      if (ready < 0 && errno != EINTR) {
        closeLocked();
        return false;
      }
      continue;  // deadline re-checked above
    }
    closeLocked();
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
      closeLocked();
      return false;
    }

    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0) {
      closeLocked();  // a late response would desync the stream
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, pollMillis(remaining));
    if (ready < 0) {
      if (errno == EINTR) continue;
      closeLocked();
      return false;
    }
    if (ready == 0) continue;  // deadline re-checked above

    std::uint8_t buf[65536];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      if (!decoder_.feed(buf, static_cast<std::size_t>(n))) {
        logWarn("net: malformed frame from " + opts_.peerName + ": " +
                frameErrorName(decoder_.error()));
        closeLocked();
        return false;
      }
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    closeLocked();  // peer closed or hard error
    return false;
  }
}

}  // namespace asdf::net
