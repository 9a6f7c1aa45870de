// Per-node OS performance-counter model — the substitute for Linux
// /proc + sysstat on the paper's EC2 nodes.
//
// Every simulated second the node substrate reports what actually
// happened on the node (core-seconds of CPU burned per category, disk
// and NIC bytes moved, memory in use, process activity) and the model
// turns that into the full sadc metric vector: 64 node-level, 18
// per-NIC, and 19 per-process metrics with realistic couplings
// (context switches track CPU + network, paging tracks disk, load
// averages are EWMAs of the run queue) plus small multiplicative
// noise. Counters therefore respond to injected faults exactly the
// way the paper's black-box analysis expects: a CPUHog inflates
// cpu_user and load, a DiskHog inflates tps/bwrtn/iowait, packet loss
// shows up as rxdrop/txdrop and depressed throughput.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "metrics/catalog.h"

namespace asdf::metrics {

/// One tracked process's activity during a tick (daemons + hog
/// processes; short-lived tasks are aggregated into node totals).
struct ProcessActivity {
  std::string name;            // e.g. "TaskTracker", "DataNode"
  double cpuUserCores = 0.0;   // core-seconds this tick
  double cpuSystemCores = 0.0;
  double readBytes = 0.0;
  double writeBytes = 0.0;
  double rssBytes = 0.0;
  int threads = 1;
  int fds = 8;
};

/// Everything the node did during one 1-second tick.
struct NodeActivity {
  double cpuUserCores = 0.0;
  double cpuNiceCores = 0.0;
  double cpuSystemCores = 0.0;
  double cpuIowaitCores = 0.0;  // cores blocked on disk
  double diskReadBytes = 0.0;
  double diskWriteBytes = 0.0;
  double netRxBytes = 0.0;
  double netTxBytes = 0.0;
  double netRxDropPkts = 0.0;  // packets dropped by loss fault
  double netTxDropPkts = 0.0;
  double memUsedBytes = 0.0;   // total, including OS baseline
  int runnableTasks = 0;       // feeds runq/load averages
  int processCount = 0;        // extra processes beyond the baseline
  double forks = 0.0;          // processes created this tick
  int tcpConnections = 0;      // open sockets beyond the baseline
  std::vector<ProcessActivity> processes;

  /// Zeroes every field; `processes` keeps its capacity.
  void reset();
};

/// A full sadc sample for one node at one instant.
struct SadcSnapshot {
  SimTime time = 0.0;
  std::vector<double> node;  // kNodeMetricCount entries
  std::vector<double> nic;   // kNicMetricCount entries (single eth0)
  std::vector<std::pair<std::string, std::vector<double>>> processes;
};

/// Persistent counter state for one node.
class NodeOsModel {
 public:
  struct Params {
    double cores = 4.0;               // two dual-core CPUs (EC2 Large)
    double memTotalBytes = 7.5e9;     // 7.5 GB (EC2 Large)
    double nicSpeedMbps = 1000.0;
    double avgPacketBytes = 1500.0;   // MTU-sized bulk transfers
    double noiseFraction = 0.02;      // multiplicative jitter
  };

  NodeOsModel(Params params, Rng rng);

  /// Consumes one tick of activity and writes the metric snapshot at
  /// time `now` into `snap`, reusing its vectors. Must be called once
  /// per simulated second.
  void tickInto(SimTime now, const NodeActivity& activity,
                SadcSnapshot& snap);

  const Params& params() const { return params_; }

  /// Whether per-process rows are computed (the default). Off, every
  /// tick still draws each row's noise, so the stream — and with it
  /// every node/NIC value and the snapshot's shape and encoded size —
  /// is unchanged, but the rows keep their names and read NaN. Only a
  /// host that never encodes the rows turns this off, before its first
  /// tick.
  void setProcessRows(bool on) { processRows_ = on; }

 private:
  // With drawOnly_ set, both advance the stream exactly as they would
  // and return NaN without computing the noise.
  double noisy(double value);
  double noisyFloor(double value, double floorSigma);

  Params params_;
  Rng rng_;
  bool processRows_ = true;
  bool drawOnly_ = false;
  // EWMA load averages with the standard 1/5/15-minute time constants.
  double load1_ = 0.0;
  double load5_ = 0.0;
  double load15_ = 0.0;
  double cachedKb_ = 3.0e5;    // page cache grows with disk traffic
  double prevFreeKb_ = -1.0;   // for frmpg_per_s deltas
  double prevBufKb_ = -1.0;
  double prevCacheKb_ = -1.0;
  // Cumulative per-process CPU tick counters keyed by process name.
  std::vector<std::pair<std::string, std::pair<double, double>>> procCpuTicks_;
};

}  // namespace asdf::metrics
