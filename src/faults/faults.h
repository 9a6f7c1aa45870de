// Fault injection: the six reproduced problems of Table 2.
//
//   CPUHog      [Hadoop ML, Sep 13 2007] — a rogue CPU-intensive
//               process consuming ~70% of the node's CPU.
//   DiskHog     [Hadoop ML, Sep 26 2007] — a sequential disk workload
//               writing 20 GB to the filesystem.
//   PacketLoss  [HADOOP-2956] — 50% packet loss on the node's NIC.
//   HADOOP-1036 — maps on the node enter an infinite loop after an
//               unhandled exception (hang with CPU spin).
//   HADOOP-1152 — reduces on the node fail while copying map output
//               (rename of a deleted file).
//   HADOOP-2080 — reduces on the node hang at the sort/merge step on
//               a miscomputed checksum.
//
// Resource faults install tick hooks that compete for the node's
// resources like any real process; application faults flip the
// NodeFaults flags that task attempts consult. Every fault targets
// exactly one node, as in the paper ("we injected one fault on one
// node in each cluster").
#pragma once

#include <memory>
#include <vector>
#include <string>

#include "common/types.h"
#include "hadoop/cluster.h"

namespace asdf::faults {

enum class FaultType : int {
  kNone = 0,
  kCpuHog,
  kDiskHog,
  kPacketLoss,
  kHadoop1036,
  kHadoop1152,
  kHadoop2080,
};

const char* faultName(FaultType type);
/// Parses a fault name ("CPUHog", "HADOOP-1036", ...); kNone for
/// "none"/"". Throws ConfigError on unknown names.
FaultType faultFromName(const std::string& name);
/// All six injectable faults, in Table 2 order.
const std::vector<FaultType>& allFaults();

struct FaultSpec {
  FaultType type = FaultType::kNone;
  NodeId node = kInvalidNode;  // slave id (1-based)
  SimTime startTime = 0.0;
  SimTime endTime = kNoTime;  // kNoTime = active until the run ends

  // Tunables (paper defaults).
  double cpuHogUtilization = 0.70;  // fraction of the node's cores
  double diskHogBytes = 20.0e9;     // total bytes written
  double packetLossRate = 0.50;
};

/// Throws ConfigError, naming the valid range, unless an injectable
/// fault targets a slave of a `slaves`-node cluster (ids 1..slaves;
/// node 0 is the master). kNone is accepted with any node.
void validateFault(const FaultSpec& spec, int slaves);

/// The DiskHog's process: a dd-style sequential writer of `totalBytes`
/// on one node. Its tick hook calls request() and then advance() every
/// second; the CascadeHotspot scenario's hog is the same writer.
class DiskHogWriter {
 public:
  explicit DiskHogWriter(double totalBytes) : total_(totalBytes) {}

  /// Claims this second's disk share, unless the write is finished.
  void request(hadoop::Node& node);
  /// Charges the granted share to the node; false when nothing was
  /// requested this second.
  bool advance(hadoop::Node& node);

  bool done() const { return written_ >= total_; }
  double written() const { return written_; }

 private:
  double total_;
  double written_ = 0.0;
  int handle_ = -1;
};

/// Arms a fault on a cluster: activation/deactivation are scheduled on
/// the cluster's engine. Keep the injector alive for the whole run.
class FaultInjector {
 public:
  FaultInjector(hadoop::Cluster& cluster, FaultSpec spec);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules activation (and deactivation when endTime is set).
  void arm();

  bool active() const { return active_; }
  const FaultSpec& spec() const { return spec_; }

  /// Bytes the DiskHog has written so far (test visibility).
  double diskHogWritten() const { return diskHog_.written(); }

  /// When the fault stopped being active (kNoTime while active): the
  /// scheduled endTime, or the moment the DiskHog finished its write.
  SimTime endedAt() const { return endedAt_; }

 private:
  void activate();
  void deactivate();
  void installHogHook();

  hadoop::Cluster& cluster_;
  FaultSpec spec_;
  bool active_ = false;
  int hookId_ = -1;
  int cpuHandle_ = -1;
  DiskHogWriter diskHog_;
  double cpuDemand_ = 1.0;     // adaptive hog demand
  double lastAchieved_ = 0.0;  // utilization achieved last tick
  SimTime endedAt_ = kNoTime;
};

}  // namespace asdf::faults
