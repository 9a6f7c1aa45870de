// Fault-tolerant RPC collection layer.
//
// The paper's collection plane is implicitly infallible: fpt-core polls
// sadc_rpcd / hadoop_log_rpcd and the fetch always returns. A real
// deployment must survive failures of the thing it monitors — a crashed
// daemon, a hung daemon, a partitioned node — without stalling or
// poisoning the analysis pipeline. RpcClient wraps the per-node daemon
// fetches with:
//
//   * a per-channel timeout (virtual, driven off the sim clock),
//   * bounded retries with exponential backoff and seeded jitter, and
//   * a per-node circuit breaker: CLOSED -> OPEN after N consecutive
//     failed rounds -> HALF_OPEN probe after a recovery interval.
//
// Every transport collects through this one retry loop: a
// LiveCollector (the sim RpcHub, a live socket transport, an archive)
// performs each attempt. A batch of fetches (fetchBatch, one per
// sibling set of collector modules) hands the first attempts of all
// its nodes to the collector in one collect() call — one pipelined
// burst on a live socket — and each failed first attempt continues in
// its node's own retry loop. A single fetch is a batch of one.
//
// All failure decisions are deterministic for a given seed: each node
// owns its own Rng stream, and every collector for a node runs inside
// that node's fpt-core exclusivity domain, so the draw sequence is
// independent of the executor (serial or thread pool).
//
// Simulated failures come from the fault gate of a client given the
// Cluster: the MonitoringFaultBoard (flipped by
// faults::MonitoringFaultInjector on an engine schedule — crash, hang,
// slowdown, partition), and the node's NIC packet-loss rate (the Table
// 2 PacketLoss fault also degrades the monitoring RPCs: an attempt
// times out with probability lossRate^2, i.e. two consecutive
// retransmission losses blow the timeout). Without the Cluster there
// is no gate, and against the sim hub every attempt succeeds: the
// paper's infallible collection.
//
// Every fetch outcome lands in the NodeHealthRegistry, which the
// analysis modules consult to compute peer medians over *surviving*
// nodes only and to distinguish "node faulty" from "node unmonitorable".
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hadoop/cluster.h"
#include "rpc/collection_tap.h"
#include "rpc/live_collector.h"
#include "rpc/transport.h"
#include "rpc/wire.h"

namespace asdf::rpc {

/// The three per-node collection daemons a channel can target.
enum class Daemon : int { kSadc = 0, kHadoopLog = 1, kStrace = 2 };
inline constexpr int kDaemonCount = 3;
const char* daemonName(Daemon d);

/// The daemon that answers a channel: hadoop_log_rpcd serves both the
/// TaskTracker and the DataNode channel.
constexpr Daemon daemonOf(CollectKind kind) {
  constexpr Daemon kOf[kCollectKindCount] = {
      Daemon::kSadc, Daemon::kHadoopLog, Daemon::kHadoopLog, Daemon::kStrace};
  return kOf[static_cast<int>(kind)];
}

/// Monitoring-plane health of a node (or of one of its channels):
///   kHealthy       — last fetch succeeded on the first attempt;
///   kDegraded      — last fetch succeeded but needed retries;
///   kUnmonitorable — last fetch round failed (or the breaker is open):
///                    the node's samples are stale, so peer comparison
///                    must exclude it and must not raise a fault alarm
///                    against it.
enum class NodeHealth : int { kHealthy = 0, kDegraded = 1, kUnmonitorable = 2 };

/// Retry / timeout / breaker tunables (ExperimentSpec::rpcPolicy).
struct RpcPolicy {
  double timeoutSeconds = 0.25;   // per-attempt channel timeout
  int maxRetries = 3;             // attempts per round = 1 + maxRetries
  double backoffBase = 0.05;      // first backoff, doubled per retry
  double backoffMax = 2.0;        // backoff ceiling
  int breakerThreshold = 3;       // consecutive failed rounds -> OPEN
  double breakerRecoverySeconds = 10.0;  // OPEN -> HALF_OPEN probe delay
};

/// The retry backoff: min(maxSeconds, baseSeconds * 2^attempt),
/// jittered by +/-25% with one draw from `rng`. RpcClient's retries and
/// net::FramedClient's redials share it.
double jitteredBackoff(double baseSeconds, double maxSeconds, int attempt,
                       Rng& rng);

/// Monitoring-plane fault state, poked by faults::MonitoringFaultInjector
/// on the engine schedule and read by RpcClient on every attempt.
/// Mutations happen in engine events, reads in module runs of later
/// events; the executor's dispatch ordering provides the needed
/// happens-before, so no locking is required.
class MonitoringFaultBoard {
 public:
  void setCrashed(NodeId node, Daemon d, bool crashed);
  void setHung(NodeId node, Daemon d, bool hung);
  /// Multiplies the channel's round-trip latency; 1.0 disables. Factors
  /// large enough to push latency past the timeout make calls fail.
  void setSlowFactor(NodeId node, Daemon d, double factor);
  /// Partitions the node: every channel of every daemon fails fast.
  void setPartitioned(NodeId node, bool partitioned);

  bool crashed(NodeId node, Daemon d) const;
  bool hung(NodeId node, Daemon d) const;
  double slowFactor(NodeId node, Daemon d) const;
  bool partitioned(NodeId node) const;

 private:
  struct NodeFaultState {
    std::array<bool, kDaemonCount> crashed{};
    std::array<bool, kDaemonCount> hung{};
    std::array<double, kDaemonCount> slow{1.0, 1.0, 1.0};
    bool partitioned = false;
  };
  const NodeFaultState* find(NodeId node) const;

  std::map<NodeId, NodeFaultState> nodes_;
};

/// Per-node circuit breaker over full fetch rounds (a round = one fetch
/// including all its retries). Time comes from the sim engine clock, so
/// transitions are deterministic.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(int threshold, double recoverySeconds)
      : threshold_(threshold), recovery_(recoverySeconds) {}

  /// kOpen reports as kHalfOpen once the recovery interval has elapsed.
  State state(SimTime now) const;
  /// False only while OPEN and still inside the recovery interval
  /// (callers fast-fail without touching the wire).
  bool allowRound(SimTime now) const;
  void onRoundSuccess(SimTime now);
  void onRoundFailure(SimTime now);

  int consecutiveFailures() const { return consecutiveFailures_; }
  long opens() const { return opens_; }

 private:
  int threshold_;
  double recovery_;
  int consecutiveFailures_ = 0;
  bool open_ = false;
  SimTime probeAt_ = kNoTime;
  long opens_ = 0;
};

/// One fetch round's outcome for the health registry: kHealthy or
/// kDegraded for a success at `now`, kUnmonitorable for a failure.
struct HealthMark {
  NodeId node = kInvalidNode;
  Daemon daemon = Daemon::kSadc;
  SimTime now = kNoTime;
  NodeHealth health = NodeHealth::kHealthy;
};

/// Shared health bulletin: written by RpcClient once per fetch batch,
/// read by the analysis modules (quorum / survivor selection), the
/// node_health module, and the harness. Internally locked — writers run
/// under per-node exclusivity domains but readers (analysis instances)
/// may run on other pool threads.
class NodeHealthRegistry {
 public:
  /// Tracks nodes 1..nodes.
  explicit NodeHealthRegistry(int nodes);

  /// Applies `marks` in order under one lock.
  void mark(std::span<const HealthMark> marks);

  /// Health of one daemon channel; kHealthy for unknown nodes.
  NodeHealth channelHealth(NodeId node, Daemon d) const;
  /// Worst health across the node's sadc and hadoop_log channels (the
  /// strace channel participates only once it has been polled).
  NodeHealth aggregate(NodeId node) const;
  /// Seconds since the channel's last successful fetch (0 when it has
  /// never been polled or just succeeded).
  double staleness(NodeId node, Daemon d, SimTime now) const;

  /// The tracked nodes in id order.
  std::vector<NodeId> nodes() const;

 private:
  struct ChannelEntry {
    NodeHealth health = NodeHealth::kHealthy;
    SimTime lastSuccess = kNoTime;
    long successes = 0;
    long failures = 0;
  };
  using NodeEntry = std::array<ChannelEntry, kDaemonCount>;
  /// Null for a node outside 1..N.
  const NodeEntry* find(NodeId node) const;

  mutable std::mutex mutex_;
  std::vector<NodeEntry> entries_;  // by NodeId - 1; sized once
};

/// One fetch-round outcome. `value` is meaningful only when ok.
template <typename T>
struct Fetched {
  bool ok = false;
  bool retried = false;  // succeeded, but not on the first attempt
  int attempts = 0;      // 0 = fast-failed on an open breaker
  T value{};
};

/// One RPC attempt: the virtual time it was issued and whether it
/// succeeded.
struct AttemptRecord {
  NodeId node = kInvalidNode;
  SimTime at = kNoTime;
  Daemon daemon = Daemon::kSadc;
  int attempt = 0;
  bool success = false;
};

/// Receives every attempt as it settles (the client keeps no attempt
/// history). Nodes polled on different pool threads report
/// concurrently; one node's attempts arrive in a deterministic order.
class AttemptSink {
 public:
  virtual ~AttemptSink() = default;
  virtual void onAttempt(const AttemptRecord& attempt) = 0;
};

class RpcClient {
 public:
  /// Collects through `collector` with no fault gate: every attempt is
  /// one collector call. `realBackoff` sleeps each backoff in wall time
  /// (live sockets); pass false for the sim hub and for replay, whose
  /// attempts resolve instantly.
  RpcClient(LiveCollector& collector, RpcPolicy policy, std::uint64_t seed,
            bool realBackoff = true);
  /// Simulated fault-tolerant client: before each attempt the fault
  /// gate consults faults() and the NIC loss rate of the node in
  /// `cluster`; only attempts it passes reach `collector`. Backoffs
  /// advance virtual time only.
  RpcClient(hadoop::Cluster& cluster, LiveCollector& collector,
            RpcPolicy policy, std::uint64_t seed);
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// One fetch round into `out`: ok/retried/attempts are reset, and
  /// `out.value` keeps its capacity, so a caller that reuses one
  /// Fetched across rounds collects without allocating. The value is
  /// meaningful only when ok.
  void fetchSadc(NodeId node, SimTime now,
                 Fetched<metrics::SadcSnapshot>& out);
  void fetchTt(NodeId node, SimTime now, SimTime watermark,
               Fetched<std::vector<hadooplog::StateSample>>& out);
  void fetchDn(NodeId node, SimTime now, SimTime watermark,
               Fetched<std::vector<hadooplog::StateSample>>& out);
  void fetchStrace(NodeId node, SimTime now,
                   Fetched<syscalls::TraceSecond>& out);

  /// One fetch round per request, `requests[i]` into `*outs[i]`, as
  /// one batch. Each node's breaker check and fault gate run first, in
  /// batch order; the first attempts of every admitted node then go to
  /// the collector in one collect() call; each node's outcome then
  /// settles in batch order, a failed first attempt continuing in the
  /// node's retry loop, and is reported to the observer. Channel
  /// counters and health marks are booked before it returns, with one
  /// lock per touched channel and one registry lock. Per node, the
  /// outcome, attempts, breaker, health registry, channel counters,
  /// Rng draws and observer samples are exactly those of fetching the
  /// requests one at a time (a node asked twice in one batch starts a
  /// second collect() call at its second request). Every request's
  /// kind must carry T: kSadc a SadcSnapshot, kTt and kDn state rows,
  /// kStrace a TraceSecond.
  template <typename T>
  void fetchBatch(std::span<const CollectRequest> requests,
                  std::span<Fetched<T>* const> outs);

  /// Flight-recorder tap: after every fetch round the observer sees
  /// the outcome (attempts/ok) plus, on success, the value re-encoded
  /// through the payload codec — byte-identical to what the daemon
  /// marshalled, so an archive written here replays exactly. Null
  /// detaches. Thread-safety matches the health registry's: set it
  /// before the run starts.
  void setObserver(CollectionObserver* observer) { observer_ = observer; }
  CollectionObserver* observer() const { return observer_; }
  /// Attempts go to `sink` (null detaches); set it like the observer.
  void setAttemptSink(AttemptSink* sink) { attemptSink_ = sink; }

  MonitoringFaultBoard& faults() { return board_; }
  NodeHealthRegistry& health() { return registry_; }
  const RpcPolicy& policy() const { return policy_; }
  /// Per-channel byte accounting: one connect per node per channel,
  /// then every attempt (failed attempts charge the request only).
  TransportRegistry& transports() { return transports_; }

  CircuitBreaker::State breakerState(NodeId node, SimTime now) const;

  // Aggregate robustness counters, summed over nodes on demand (no
  // shared mutable counters — nodes may be polled concurrently).
  long totalRounds() const { return sum(&NodeState::rounds); }
  long totalRetries() const { return sum(&NodeState::retries); }
  long totalFailedRounds() const { return sum(&NodeState::failedRounds); }
  long totalFastFails() const { return sum(&NodeState::fastFails); }
  long totalBreakerOpens() const;

 private:
  struct NodeState {
    Rng rng;
    CircuitBreaker breaker;
    long rounds = 0;
    long retries = 0;
    long failedRounds = 0;
    long fastFails = 0;
    bool inBatch = false;  // has a round in the batch being assembled
    NodeState(std::uint64_t seed, const RpcPolicy& p)
        : rng(seed),
          breaker(p.breakerThreshold, p.breakerRecoverySeconds) {}
  };
  /// One node's open fetch round inside fetchBatch.
  struct Round {
    NodeState* st = nullptr;
    int maxAttempts = 0;      // 0 = fast-failed on an open breaker
    double firstCost = 0.0;   // virtual seconds of the first attempt
    std::size_t slot = kNotAdmitted;  // the first attempt's collect slot
  };
  static constexpr std::size_t kNotAdmitted = static_cast<std::size_t>(-1);
  /// One batch's channel counters and health marks, in request order.
  struct BatchBook {
    std::array<ChannelTally, kCollectKindCount> channels{};
    std::vector<HealthMark> marks;
  };
  void apply(BatchBook& book);  // and clears it

  NodeState& state(NodeId node);
  const NodeState& state(NodeId node) const;
  long sum(long NodeState::*counter) const;
  /// Opens a round: counts it and checks the breaker. Returns the
  /// attempts the round may make — 0 when an open breaker fast-failed
  /// it (the failure is already booked), 1 for a HALF_OPEN probe.
  int openRound(NodeState& st, const CollectRequest& req, BatchBook& book);
  /// The retry loop, from the first attempt's outcome on: attempt sink,
  /// byte charges, backoff plus jitter, then one fault-gated collect
  /// per further try, and the round's success or failure booking. Sets
  /// out.ok/retried/attempts.
  template <typename T>
  void settleRound(const CollectRequest& req, Fetched<T>& out,
                   const Round& round, bool firstOk,
                   std::size_t firstResponseBytes, BatchBook& book);
  /// Reports a finished round to the observer, if any.
  template <typename T>
  void report(const CollectRequest& req, Fetched<T>& out);
  /// The fault gate of one attempt: always passes without a Cluster;
  /// otherwise the simulated gate's success flag, plus the virtual
  /// seconds the attempt consumed (timeout or refusal cost on failure).
  bool admit(NodeState& st, const CollectRequest& req, double& costSeconds);

  LiveCollector& collector_;
  hadoop::Cluster* cluster_ = nullptr;  // fault gate; null = fault-free
  CollectionObserver* observer_ = nullptr;
  AttemptSink* attemptSink_ = nullptr;
  bool realBackoff_;
  RpcPolicy policy_;
  MonitoringFaultBoard board_;
  NodeHealthRegistry registry_;
  TransportRegistry transports_;
  std::array<RpcChannelStats*, kCollectKindCount> channels_{};
  std::vector<NodeState> states_;  // by NodeId - 1
};

/// Parses an analysis origin label of the form "slave<k>"; kInvalidNode
/// when the label has a different shape (custom test pipelines).
NodeId nodeIdFromOrigin(const std::string& origin);

}  // namespace asdf::rpc
