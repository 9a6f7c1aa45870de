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

void FramedClient::callBurst(std::span<const std::uint8_t> frames,
                             std::span<const MsgType> expected,
                             std::span<Frame> responses,
                             std::span<CallStatus> statuses) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(statuses.begin(), statuses.end(), CallStatus::kFailed);
  if (!opts_.greeting.empty() && !greetLocked()) return;
  burst(frames, expected, responses, statuses);
}

bool FramedClient::exchange(MsgType request, const rpc::Encoder& payload,
                            MsgType expected, Frame& response) {
  const std::vector<std::uint8_t> frame = encodeFrame(request, payload);
  CallStatus status = CallStatus::kFailed;
  burst(frame, {&expected, 1}, {&response, 1}, {&status, 1});
  return status == CallStatus::kOk;
}

void FramedClient::burst(std::span<const std::uint8_t> frames,
                         std::span<const MsgType> expected,
                         std::span<Frame> responses,
                         std::span<CallStatus> statuses) {
  if (fd_ < 0) return;
  const double deadline = monotonicSeconds() + opts_.timeoutSeconds;
  std::size_t sent = 0;
  std::size_t answered = 0;
  Frame frame;
  while (answered < expected.size()) {
    // Send as much of the burst as the socket takes now.
    while (sent < frames.size()) {
      const ssize_t n =
          send(fd_, frames.data() + sent, frames.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      closeLocked();
      return;
    }

    // Match every complete response, in request order.
    while (answered < expected.size() && decoder_.next(frame)) {
      if (frame.type == expected[answered]) {
        responses[answered] = std::move(frame);
        statuses[answered++] = CallStatus::kOk;
        failStreak_ = 0;  // a full exchange proves the peer healthy
        nextDialAllowed_ = 0.0;
        continue;
      }
      if (frame.type == MsgType::kError) {
        try {
          rpc::Decoder dec(frame.payload);
          const std::uint32_t code = dec.getU32();
          logWarn("net: " + opts_.peerName + " error " +
                  std::to_string(code) + ": " + dec.getString());
        } catch (const RpcError&) {
        }
        statuses[answered++] = CallStatus::kPeerError;
        continue;
      }
      // Unexpected type (e.g. a stale response after a timeout): a
      // request/response stream this far out of step cannot be
      // trusted — resync by reconnecting.
      closeLocked();
      return;
    }
    if (answered == expected.size()) return;

    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0) {
      closeLocked();  // a late response would desync the stream
      return;
    }
    // Wait to read, and to write while the burst is still going out:
    // reading while a throttled send waits keeps a peer blocked on its
    // own full send buffer from deadlocking the burst.
    const short events =
        static_cast<short>(sent < frames.size() ? POLLIN | POLLOUT : POLLIN);
    pollfd pfd{fd_, events, 0};
    const int ready = poll(&pfd, 1, pollMillis(remaining));
    if (ready < 0) {
      if (errno == EINTR) continue;
      closeLocked();
      return;
    }
    if (ready == 0 || (pfd.revents & ~POLLOUT) == 0) continue;

    std::uint8_t buf[65536];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      if (!decoder_.feed(buf, static_cast<std::size_t>(n))) {
        logWarn("net: malformed frame from " + opts_.peerName + ": " +
                frameErrorName(decoder_.error()));
        closeLocked();
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    closeLocked();  // peer closed or hard error
    return;
  }
}

}  // namespace asdf::net
