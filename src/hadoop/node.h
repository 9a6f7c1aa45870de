// A simulated cluster node: resources, OS counters, daemons' logs.
//
// Each node owns its CPU/disk/NIC share-resources, its OS-counter
// model, and the log buffers of the Hadoop daemons that run on it
// (TaskTracker + DataNode on slaves). During a tick, tasks and fault
// processes register demands against the resources, then record what
// they actually consumed via the add*() accumulators; endTick() rolls
// the accumulated activity into the OS model and keeps the latest
// sadc snapshot for collection (Node implements SadcProvider).
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hadoop/config.h"
#include "hadooplog/log_buffer.h"
#include "hadooplog/writer.h"
#include "metrics/os_model.h"
#include "metrics/sadc.h"
#include "sim/resources.h"
#include "syscalls/trace_model.h"

namespace asdf::topology {
class UplinkPlane;
}

namespace asdf::hadoop {

/// Per-node fault switches, flipped by the fault injectors and
/// consulted by task attempts at phase boundaries (the application-bug
/// faults of Table 2 manifest inside tasks running on the sick node).
struct NodeFaults {
  bool mapHang = false;         // HADOOP-1036: maps spin forever
  bool reduceCopyFail = false;  // HADOOP-1152: shuffle copies fail
  bool reduceSortHang = false;  // HADOOP-2080: reduce hangs at sort
};

class Node : public metrics::SadcProvider {
 public:
  Node(NodeId id, const HadoopParams& params, Rng rng);

  NodeId id() const { return id_; }
  /// Cluster-internal address, e.g. "10.250.0.3".
  const std::string& ip() const { return ip_; }
  bool isMaster() const { return id_ == 0; }

  sim::CpuResource& cpu() { return cpu_; }
  sim::DiskResource& disk() { return disk_; }
  sim::NicResource& nic() { return nic_; }

  /// Rack placement, set by the Cluster from its layout. rack() is -1
  /// for the master; uplinks() is null on flat topologies, so flow
  /// helpers (hdfs.h) degenerate to no-ops and flat runs stay
  /// byte-identical to the pre-topology simulator.
  void setTopology(int rack, topology::UplinkPlane* uplinks) {
    rack_ = rack;
    uplinks_ = uplinks;
  }
  int rack() const { return rack_; }
  topology::UplinkPlane* uplinks() const { return uplinks_; }

  hadooplog::LogBuffer& ttLog() { return ttLog_; }
  hadooplog::LogBuffer& dnLog() { return dnLog_; }
  hadooplog::TtLogWriter& ttWriter() { return ttWriter_; }
  hadooplog::DnLogWriter& dnWriter() { return dnWriter_; }

  NodeFaults& faults() { return faults_; }
  const NodeFaults& faults() const { return faults_; }

  // --- tick protocol ----------------------------------------------------
  void beginTick();
  void finalizeResources();
  /// Rolls up this tick's activity into the OS model at time `now`.
  void endTick(SimTime now);

  // --- activity accounting (called after grants are known) --------------
  void addCpuUser(double coreSeconds) { activity_.cpuUserCores += coreSeconds; }
  void addCpuSystem(double coreSeconds) {
    activity_.cpuSystemCores += coreSeconds;
  }
  void addCpuIowait(double coreSeconds) {
    activity_.cpuIowaitCores += coreSeconds;
  }
  void addDiskRead(double bytes) { activity_.diskReadBytes += bytes; }
  void addDiskWrite(double bytes) { activity_.diskWriteBytes += bytes; }
  void addNetRx(double bytes) { activity_.netRxBytes += bytes; }
  void addNetTx(double bytes) { activity_.netTxBytes += bytes; }
  void addNetRxDrops(double pkts) { activity_.netRxDropPkts += pkts; }
  void addNetTxDrops(double pkts) { activity_.netTxDropPkts += pkts; }
  void addMemUsed(double bytes) { activity_.memUsedBytes += bytes; }
  void addRunnable(int n) { activity_.runnableTasks += n; }
  void addProcesses(int n) { activity_.processCount += n; }
  void addForks(double n) { activity_.forks += n; }
  void addTcpConnections(int n) { activity_.tcpConnections += n; }
  /// Disk bytes moved on behalf of the DataNode daemon (block serves /
  /// receives); feeds the DN process metrics.
  void addDnBytes(double readBytes, double writeBytes) {
    dnReadBytes_ += readBytes;
    dnWriteBytes_ += writeBytes;
  }
  /// Number of task attempts currently hosted (TT process metrics).
  void setRunningTasks(int n) { runningTasks_ = n; }
  /// A task wedged in a blocking loop this tick (futex/nanosleep
  /// syscall signature).
  void addHungTask() { ++hungTasks_; }
  /// A task spinning on the CPU this tick (near-silent trace).
  void addSpinningTask() { ++spinningTasks_; }
  /// Extra tracked process for this tick (e.g. a fault hog process).
  void addTrackedProcess(const metrics::ProcessActivity& p) {
    extraProcesses_.push_back(p);
  }

  // --- monitoring --------------------------------------------------------
  const metrics::SadcSnapshot& sadcCollect() const override {
    return lastSnapshot_;
  }
  SimTime lastSnapshotTime() const { return lastSnapshot_.time; }
  /// Per-process rows computed (default) or only drawn; see
  /// NodeOsModel::setProcessRows.
  void setProcessRows(bool on) { osModel_.setProcessRows(on); }
  /// The syscall trace of the most recent tick (strace module). Traces
  /// are drawn only from the first read or attachSyscallTraceConsumer()
  /// on; attached before the first tick, the node's stream is the same
  /// whichever ticks are read.
  const syscalls::TraceSecond& lastSyscallTrace() {
    return traceModel_.trace();
  }
  void attachSyscallTraceConsumer() { traceModel_.attachConsumer(); }

 private:
  NodeId id_;
  std::string ip_;
  const HadoopParams& params_;
  int rack_ = -1;
  topology::UplinkPlane* uplinks_ = nullptr;
  sim::CpuResource cpu_;
  sim::DiskResource disk_;
  sim::NicResource nic_;
  metrics::NodeOsModel osModel_;
  metrics::NodeActivity activity_;
  metrics::SadcSnapshot lastSnapshot_;
  hadooplog::LogBuffer ttLog_;
  hadooplog::LogBuffer dnLog_;
  hadooplog::TtLogWriter ttWriter_;
  hadooplog::DnLogWriter dnWriter_;
  NodeFaults faults_;
  syscalls::SyscallTraceModel traceModel_;
  double dnReadBytes_ = 0.0;
  double dnWriteBytes_ = 0.0;
  int runningTasks_ = 0;
  int hungTasks_ = 0;
  int spinningTasks_ = 0;
  std::vector<metrics::ProcessActivity> extraProcesses_;
};

}  // namespace asdf::hadoop
