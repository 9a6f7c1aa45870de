// Deterministic socket-level fault injection for the live plane
// (DESIGN.md §13).
//
// ChaosProxy is an in-process TCP proxy on the existing EventLoop: it
// accepts connections on a loopback port and forwards bytes to a real
// daemon (asdf_rpcd / asdf_aggd) while applying a **seeded,
// deterministic schedule** of toxics, per direction:
//
//   latency + jitter     — each forwarded chunk is delivered after an
//                          added delay (jitter drawn from the seed)
//   rate throttle        — bytes leave at most rateBytesPerSec (the
//                          slowloris trickle)
//   slice / coalesce     — writes are re-chunked: split into at most
//                          sliceBytes segments, or held until
//                          coalesceBytes accumulate
//   byte corruption      — byte at stream offset o is flipped iff a
//                          hash of (seed, connection ordinal,
//                          direction, o) lands under corruptPerKb/1024
//   connection reset     — the connection is torn down with an RST
//                          once a direction has relayed
//                          resetAfterBytes bytes
//   blackhole / partition— while a phase with blackhole=true is
//                          active, nothing is read or forwarded in
//                          either direction and new upstream dials are
//                          deferred (peers see silence, then timeouts)
//
// Determinism contract: every chaos *decision* (which byte corrupts,
// where a reset fires, which phases exist) is a pure function of the
// seed, the connection's accept ordinal, the direction and the stream
// byte offset — never of wall-clock time or of how read() happened to
// chunk the stream. Two runs with the same seed and the same
// per-connection byte streams therefore produce the same event log;
// the phase timeline itself is config, logged up front. Only the added
// latency's realized arrival times vary run to run.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/socket.h"

namespace asdf::net {

/// One direction's toxic parameters. Default-constructed = identity
/// (forward untouched).
struct ChaosToxics {
  double latencySeconds = 0.0;   // added delay per forwarded chunk
  double jitterSeconds = 0.0;    // uniform +/- jitter on the delay
  double rateBytesPerSec = 0.0;  // 0 = unlimited
  std::size_t sliceBytes = 0;    // 0 = off: forward in <= slice chunks
  std::size_t coalesceBytes = 0; // 0 = off: hold until this many queue
  double corruptPerKb = 0.0;     // expected corrupted bytes per KiB
  std::uint64_t resetAfterBytes = 0;  // 0 = off: RST at this offset
};

/// One phase of the chaos schedule, entered `startSeconds` after the
/// proxy starts. Phases apply in order; the last one runs forever.
struct ChaosPhase {
  double startSeconds = 0.0;
  ChaosToxics up;    // client -> daemon
  ChaosToxics down;  // daemon -> client
  bool blackhole = false;  // partition window: nothing moves
};

struct ChaosOptions {
  std::uint16_t listenPort = 0;  // 0 = ephemeral, see ChaosProxy::port()
  std::string upstreamHost = "127.0.0.1";
  std::uint16_t upstreamPort = 0;
  std::uint64_t seed = 1;
  /// Empty = one identity phase (plain forwarding).
  std::vector<ChaosPhase> phases;
  /// Per-direction relay buffer bound; beyond it the proxy stops
  /// reading that side (backpressure, never unbounded growth).
  std::size_t maxBufferedBytes = 4u << 20;
};

/// One realized chaos event. Offsets and ordinals make the log
/// comparable across runs; no wall-clock fields on purpose.
struct ChaosEvent {
  enum class Kind : int {
    kPhaseEnter = 0,
    kPartitionStart = 1,
    kPartitionEnd = 2,
    kAccept = 3,
    kUpstreamFailed = 4,
    kCorrupt = 5,
    kReset = 6,
  };
  Kind kind = Kind::kPhaseEnter;
  std::uint64_t conn = 0;   // accept ordinal (1-based; 0 = proxy-level)
  int dir = -1;             // 0 = up (client->daemon), 1 = down, -1 n/a
  std::uint64_t offset = 0; // stream byte offset (corrupt/reset)
  int phase = 0;

  std::string describe() const;
  bool operator==(const ChaosEvent&) const = default;
};

class ChaosProxy {
 public:
  /// Binds 127.0.0.1:listenPort and schedules the phase timeline on
  /// `loop`. Throws NetError on bind failure, or naming the upstream
  /// host unless it is an IPv4 literal. Everything but the
  /// counters/log accessors must run with the loop (construct before
  /// starting it, destroy after stopping it).
  ChaosProxy(EventLoop& loop, ChaosOptions opts);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Thread-safe counters / log (mutex-guarded; callable mid-run).
  std::vector<ChaosEvent> events() const;
  long corruptedBytes() const;
  long resets() const;
  long accepted() const;
  /// Bytes relayed per direction (0 = up, 1 = down).
  std::uint64_t relayedBytes(int dir) const;

  /// The deterministic schedule description: phase timeline plus, for
  /// the first `conns` connection ordinals, every corruption offset
  /// below `horizonBytes` and the reset offset. A pure function of
  /// (options, seed) — two proxies built from the same options always
  /// agree. Usable as the reproducibility fingerprint of a run.
  std::string describeSchedule(std::uint64_t conns,
                               std::uint64_t horizonBytes) const;

 private:
  struct Relay;  // one proxied connection (client fd + upstream fd)

  void addRelay(int fd);  // one accepted client connection
  void enterPhase(std::size_t index);
  void scheduleNextPhase();
  const ChaosPhase& phase() const { return opts_.phases[phaseIndex_]; }

  // Relay plumbing (loop thread only).
  void startUpstreamConnect(Relay& relay);
  void handleClientEvents(Relay& relay, std::uint32_t events);
  void handleUpstreamEvents(Relay& relay, std::uint32_t events);
  void readInto(Relay& relay, int dir);
  void pump(Relay& relay, int dir);
  void schedulePump(Relay& relay, int dir, double delaySeconds);
  /// Reset-toxic teardown, once the bytes below the reset offset have
  /// drained: RST toward `dir`'s source, orderly FIN toward the sink.
  void resetRelay(Relay& relay, int dir);
  void dropRelay(std::uint64_t id, bool rst);
  void resumeAll();

  void logEvent(ChaosEvent ev);

  /// True iff the byte at `offset` of (conn, dir) corrupts under
  /// probability `perKb/1024` — the pure per-byte decision.
  bool corruptsAt(std::uint64_t conn, int dir, std::uint64_t offset,
                  double perKb) const;

  EventLoop& loop_;
  ChaosOptions opts_;
  Listener listener_;
  std::size_t phaseIndex_ = 0;
  int phaseTimer_ = -1;
  std::uint64_t nextConnId_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Relay>> relays_;

  mutable std::mutex statsMutex_;
  std::vector<ChaosEvent> events_;
  long corruptedBytes_ = 0;
  long resets_ = 0;
  long accepted_ = 0;
  std::uint64_t relayed_[2] = {0, 0};
};

const char* chaosEventKindName(ChaosEvent::Kind kind);

}  // namespace asdf::net
