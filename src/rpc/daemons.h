// The per-node collection daemons: sadc_rpcd and hadoop_log_rpcd.
//
// Exactly as in the paper (Section 4.3), each monitored slave runs two
// daemons that the ASDF control node polls over RPC: sadc_rpcd wraps
// libsadc and returns the current OS metric snapshot; hadoop_log_rpcd
// wraps the log-parser library and returns the per-second Hadoop state
// vectors derived from the TaskTracker and DataNode logs.
//
// Every fetch hands its value to the caller in process, with no wire
// round trip, and reports the size the codec would marshal it to
// (rpc::encodedSize, Table 4 bytes, charged by the client). It charges
// the host node a sliver of CPU and network (the monitoring
// perturbation the paper measures in Table 3). The hub meters the time
// spent in its daemons, which the Table 3 bench reports, once per
// collect() batch and daemon kind; that time covers the collection,
// not a marshal and unmarshal that no real daemon does in one process.
// A batch is in-memory work on the caller's thread that never blocks,
// so it is metered as on-thread busy time from the steady clock
// (BusyMeter, common/cputime.h): a thread-CPU read is a syscall that
// costs about as much as a fetch.
//
// RpcHub serves the daemons as an rpc::LiveCollector, so sim runs
// collect through the same RpcClient loop as live and replay runs. A
// hub also owns a fault-free client of its own — the paper's infallible
// collection — for pipelines that provide only the "rpc" service.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/cputime.h"
#include "common/types.h"
#include "hadoop/cluster.h"
#include "hadooplog/parser.h"
#include "metrics/os_model.h"
#include "rpc/live_collector.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"

namespace asdf::rpc {

class SadcDaemon {
 public:
  explicit SadcDaemon(hadoop::Node& node);

  /// One collection iteration: the node's current snapshot, by
  /// reference (valid until the node's next tick). `responseBytes` is
  /// its marshalled size.
  const metrics::SadcSnapshot& fetch(std::size_t& responseBytes);

  std::size_t memoryFootprintBytes() const;

 private:
  hadoop::Node& node_;
};

class HadoopLogDaemon {
 public:
  /// `attachTime` anchors the parsers' clocks (zero vectors are
  /// reported for quiet seconds from that point on).
  HadoopLogDaemon(hadoop::Node& node, SimTime attachTime);

  /// Parses any new lines of the kind's log — TaskTracker for kTt,
  /// DataNode for kDn — and moves the finalized per-second state
  /// vectors into `out` (cleared first).
  void fetch(CollectKind kind, SimTime watermark,
             std::vector<hadooplog::StateSample>& out,
             std::size_t& responseBytes);

  std::size_t memoryFootprintBytes() const;

 private:
  hadoop::Node& node_;
  hadooplog::TtLogParser ttParser_;
  hadooplog::DnLogParser dnParser_;
  std::size_t ttCursor_ = 0;
  std::size_t dnCursor_ = 0;
};

/// strace_rpcd (Section 5 extension): ships the node's per-second
/// syscall trace to the control node.
class StraceDaemon {
 public:
  explicit StraceDaemon(hadoop::Node& node);

  /// The most recent tick's syscall trace, by reference. The wire
  /// format is one byte per event plus a length prefix
  /// (`responseBytes`).
  const syscalls::TraceSecond& fetch(std::size_t& responseBytes);

  /// Called when a poller of this daemon is configured: the node draws
  /// its trace every second from then on, so what a fetch returns does
  /// not depend on which earlier seconds were fetched.
  void attachConsumer();

  std::size_t memoryFootprintBytes() const;

 private:
  hadoop::Node& node_;
};

/// One hub per monitored cluster: owns the per-node daemons, like the
/// boot-time daemon start-up the paper requires on all monitored nodes.
/// As a collector every call is one attempt that always succeeds;
/// failures are injected by the fault gate of a client given the
/// simulated Cluster.
class RpcHub final : public LiveCollector {
 public:
  RpcHub(hadoop::Cluster& cluster, SimTime attachTime);
  // The hub's own client refers back to it.
  RpcHub(const RpcHub&) = delete;
  RpcHub& operator=(const RpcHub&) = delete;

  SadcDaemon& sadc(NodeId node);
  HadoopLogDaemon& hadoopLog(NodeId node);
  StraceDaemon& strace(NodeId node);

  int slaves() const override;
  /// Always succeeds: each request's node daemon for its kind answers,
  /// in batch order. A daemon charges only its own node, so the order
  /// across nodes does not change what the simulator computes.
  void collect(std::span<const CollectRequest> requests,
               std::span<CollectResult> results) override;

  /// The hub's own fault-free client (default policy, no fault gate):
  /// collector modules fall back to it when the environment provides
  /// no "rpc_client".
  RpcClient& client() { return *client_; }
  /// Per-channel accounting of the hub's own client.
  TransportRegistry& transports() { return client_->transports(); }

  /// Busy seconds of each daemon kind, over all nodes (Table 3).
  double sadcCpuSeconds() const { return busySeconds(Daemon::kSadc); }
  double hadoopLogCpuSeconds() const { return busySeconds(Daemon::kHadoopLog); }
  double straceCpuSeconds() const { return busySeconds(Daemon::kStrace); }
  std::size_t sadcMemoryBytes() const { return bytes(&NodeDaemons::sadc); }
  std::size_t hadoopLogMemoryBytes() const { return bytes(&NodeDaemons::log); }
  std::size_t straceMemoryBytes() const { return bytes(&NodeDaemons::strace); }

 private:
  struct NodeDaemons {
    NodeDaemons(hadoop::Node& node, SimTime attachTime)
        : sadc(node), log(node, attachTime), strace(node) {}
    SadcDaemon sadc;
    HadoopLogDaemon log;
    StraceDaemon strace;
  };
  NodeDaemons& daemons(NodeId node);
  /// Answers one request from its node's daemon.
  void serve(const CollectRequest& req, CollectResult& result);
  double busySeconds(Daemon d) const {
    return busy_[static_cast<int>(d)].seconds();
  }
  /// One daemon kind's memory footprint, summed over nodes.
  template <typename D>
  std::size_t bytes(D NodeDaemons::*daemon) const {
    std::size_t total = 0;
    for (const auto& d : daemons_) {
      total += ((*d).*daemon).memoryFootprintBytes();
    }
    return total;
  }

  std::vector<std::unique_ptr<NodeDaemons>> daemons_;  // by NodeId - 1
  std::array<BusyMeter, kDaemonCount> busy_;  // by Daemon
  std::unique_ptr<RpcClient> client_;
};

}  // namespace asdf::rpc
