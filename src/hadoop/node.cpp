#include "hadoop/node.h"

#include "common/strings.h"

namespace asdf::hadoop {

Node::Node(NodeId id, const HadoopParams& params, Rng rng)
    : id_(id),
      ip_(strformat("10.250.0.%d", id + 1)),
      params_(params),
      cpu_(params.cores),
      disk_(params.diskBytesPerSec),
      nic_(params.nicBytesPerSec),
      osModel_(
          metrics::NodeOsModel::Params{params.cores, params.memTotalBytes,
                                       params.nicBytesPerSec * 8.0 / 1.0e6,
                                       1500.0, 0.02},
          rng),
      ttWriter_(&ttLog_),
      dnWriter_(&dnLog_),
      traceModel_(syscalls::SyscallTraceModel::Params{}, rng.split()) {}

void Node::beginTick() {
  cpu_.beginTick();
  disk_.beginTick();
  nic_.beginTick();
  // Note: activity_ is NOT cleared here — it accumulates until
  // endTick() consumes it, so contributions from events that fire
  // between ticks (heartbeats, RPC daemons) are not lost.
}

void Node::finalizeResources() {
  cpu_.finalize();
  disk_.finalize();
  nic_.finalize();
}

void Node::endTick(SimTime now) {
  // Daemon baseline: the TaskTracker and DataNode JVMs idle at a tiny
  // CPU cost and grow modestly with hosted work. Log appends charge
  // the disk.
  const double logBytes = ttLog_.drainNewBytes() + dnLog_.drainNewBytes();
  activity_.diskWriteBytes += logBytes;

  metrics::ProcessActivity tt;
  tt.name = "TaskTracker";
  tt.cpuUserCores = 0.015 + 0.004 * runningTasks_;
  tt.cpuSystemCores = 0.005 + 0.002 * runningTasks_;
  tt.rssBytes = 1.8e8 + 1.0e7 * runningTasks_;
  tt.threads = 24 + 4 * runningTasks_;
  tt.fds = 90 + 12 * runningTasks_;
  tt.writeBytes = logBytes * 0.5;

  metrics::ProcessActivity dn;
  dn.name = "DataNode";
  dn.cpuUserCores = 0.008 + (dnReadBytes_ + dnWriteBytes_) / 4.0e9;
  dn.cpuSystemCores = 0.004 + (dnReadBytes_ + dnWriteBytes_) / 8.0e9;
  dn.rssBytes = 1.2e8;
  dn.threads = 18;
  dn.fds = 60;
  dn.readBytes = dnReadBytes_;
  dn.writeBytes = dnWriteBytes_;

  activity_.cpuUserCores += tt.cpuUserCores + dn.cpuUserCores;
  activity_.cpuSystemCores += tt.cpuSystemCores + dn.cpuSystemCores;
  activity_.memUsedBytes += params_.daemonMemBytes;
  activity_.processCount += 2;

  activity_.processes.push_back(tt);
  activity_.processes.push_back(dn);
  for (const auto& p : extraProcesses_) activity_.processes.push_back(p);

  osModel_.tickInto(now, activity_, lastSnapshot_);
  traceModel_.record(activity_, hungTasks_, spinningTasks_);

  activity_.reset();
  dnReadBytes_ = 0.0;
  dnWriteBytes_ = 0.0;
  hungTasks_ = 0;
  spinningTasks_ = 0;
  extraProcesses_.clear();
}

}  // namespace asdf::hadoop
