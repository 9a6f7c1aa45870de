// Blocking framed-TCP request/response connection — the socket
// machinery shared by every client of the CRC-framed protocol
// (LiveTransport to asdf_rpcd, AggClient to asdf_aggd).
//
// Owns one socket: connect(), one call() per request/response
// exchange or one callBurst() per pipelined burst of them, each with a
// poll()-based deadline, disconnect-on-error (a length-prefixed stream
// cannot be resynchronized after corruption or a timeout). A call is a
// burst of one: there is one exchange routine. The socket is
// non-blocking throughout: the dial, the request write and the
// response read all respect the per-call deadline even when a
// throttled peer accepts bytes one at a time.
// Redials are gated by capped exponential backoff with seeded jitter
// so a dead daemon is never hammered in a hot loop. The session lives
// here too, once for every client: with a greeting in its Options,
// every fresh connection opens with the hello exchange before its
// first call, and requestShutdown() closes the session. Every public
// call is serialized on an internal mutex, so collectors on a pool
// executor can share one client without interleaving frames.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>

#include "common/rng.h"
#include "net/frame.h"

namespace asdf::net {

/// Where a framed-protocol client dials, and how patiently.
struct EndpointOptions {
  std::string host = "127.0.0.1";  // an IPv4 literal
  std::uint16_t port = 0;
  /// Per-attempt deadline covering request + response (and, on a
  /// fresh connection, the dial and the hello).
  double timeoutSeconds = 5.0;
  /// Seeds the redial backoff jitter.
  std::uint64_t backoffSeed = 1;
};

class FramedClient {
 public:
  /// How one request of a burst ended.
  enum class CallStatus : std::uint8_t {
    kOk,         // the expected response arrived
    kPeerError,  // the peer answered kError (logged); the connection
                 // stays usable — the peer replied
    kFailed,     // no answer: not connected, timeout, reset, malformed
                 // or out-of-step frame; the connection was dropped
  };

  struct Options : EndpointOptions {
    /// Peer name used in log messages ("asdf_rpcd", "asdf_aggd").
    std::string peerName = "daemon";
    /// Sent in the kHello that opens every fresh connection; empty
    /// means no session (bare framed exchanges).
    std::string greeting;
    /// Redial backoff: after the k-th consecutive failure the next
    /// dial is allowed only backoffBase * 2^k seconds later (capped,
    /// jittered: rpc::jitteredBackoff, as RpcClient's retries).
    double backoffBaseSeconds = 0.05;
    double backoffMaxSeconds = 2.0;
  };

  /// Throws NetError naming the host unless it is an IPv4 literal.
  explicit FramedClient(Options opts);
  ~FramedClient();
  FramedClient(const FramedClient&) = delete;
  FramedClient& operator=(const FramedClient&) = delete;

  /// Establishes the TCP connection (no protocol handshake; see
  /// greet()). True when already connected. False immediately —
  /// without touching the network — while a redial backoff window is
  /// open.
  bool connect() {
    std::lock_guard<std::mutex> lock(mutex_);
    return dialLocked();
  }

  /// Connects when not connected and opens the session on the fresh
  /// connection: kHello{version, greeting} answered by a kHelloAck of
  /// the same version serving at least one member, kept in peer().
  /// Any hello failure disconnects and charges the redial backoff, so
  /// a peer that takes the dial but never answers (a partition: SYN
  /// completes, bytes never do) is not redialed in a hot loop. True
  /// when connected and greeted.
  bool greet();

  /// The last successful hello's ack (members 0 before the first).
  const HelloAck& peer() const { return peer_; }

  /// Asks the peer to exit (greeting it first if not connected):
  /// kShutdown, then disconnects. Best-effort.
  void requestShutdown();
  void disconnect();
  bool connected() const { return fd_ >= 0; }

  /// One request/response exchange; with a greeting, on a greeted
  /// connection (greet() first when not connected). False on
  /// not-connected, timeout, disconnect, framing error (all drop the
  /// connection), or a kError response (logged; the connection stays
  /// usable — the peer replied). A successful exchange resets the
  /// redial backoff.
  bool call(MsgType request, const rpc::Encoder& payload, MsgType expected,
            Frame& response);

  /// One pipelined burst, on a greeted connection as call(): `frames`
  /// holds one request frame per entry of `expected`, back to back
  /// (encodeFrameInto). They leave in one write as far as the socket
  /// takes them, and the client reads while a throttled send waits, so
  /// a burst larger than the socket buffers cannot deadlock. Responses
  /// are matched to requests in order against one deadline (the
  /// per-call timeout): `statuses[i]` says how request i ended and, on
  /// kOk, `responses[i]` holds its response. A kError answers only its
  /// own request. A timeout, a reset, a malformed frame or a frame of
  /// an unexpected type drops the connection and fails every request
  /// still unanswered; the next call redials. Any expected response
  /// resets the redial backoff.
  void callBurst(std::span<const std::uint8_t> frames,
                 std::span<const MsgType> expected, std::span<Frame> responses,
                 std::span<CallStatus> statuses);

  /// Connections re-established after the first one (each is evidence
  /// the peer bounced).
  long reconnects() const { return reconnects_; }

  /// Dial attempts refused because the backoff window was still open.
  long suppressedDials() const { return suppressedDials_; }

 private:
  // The unserialized bodies of the public calls; mutex_ held.
  bool dialLocked();
  bool greetLocked();
  /// One request/response exchange: a burst of one.
  bool exchange(MsgType request, const rpc::Encoder& payload,
                MsgType expected, Frame& response);
  /// The exchange routine under call() and callBurst(); `statuses`
  /// must come in all kFailed.
  void burst(std::span<const std::uint8_t> frames,
             std::span<const MsgType> expected, std::span<Frame> responses,
             std::span<CallStatus> statuses);
  void closeLocked();
  /// Charges one failure to the redial backoff.
  void backoffFailure();

  Options opts_;
  std::mutex mutex_;
  HelloAck peer_;
  int fd_ = -1;
  FrameDecoder decoder_;
  bool everConnected_ = false;
  long reconnects_ = 0;
  long suppressedDials_ = 0;
  int failStreak_ = 0;
  double nextDialAllowed_ = 0.0;
  Rng backoffRng_;
};

}  // namespace asdf::net
