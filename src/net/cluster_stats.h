// Cluster-side accounting shipped over the kStats call (DESIGN.md §9).
//
// A live harness run has no in-process Cluster or RpcHub to interrogate
// for Table 3 daemon costs, fault end time, or cluster-health sanity
// counters; asdf_rpcd reports them instead. Sim harness runs read the
// same snapshot in process (SimCluster::stats). The struct round-trips through the same
// XDR-style codec as every other payload.
#pragma once

#include "common/types.h"
#include "rpc/wire.h"

namespace asdf::net {

struct ClusterStatsWire {
  double simNow = 0.0;          // daemon's virtual clock after advance
  double faultEndedAt = -1.0;   // kNoTime when still active / no fault
  double sadcCpuSeconds = 0.0;
  double hadoopLogCpuSeconds = 0.0;
  double straceCpuSeconds = 0.0;
  std::int64_t sadcMemoryBytes = 0;
  std::int64_t hadoopLogMemoryBytes = 0;
  std::int64_t straceMemoryBytes = 0;
  std::int64_t jobsSubmitted = 0;
  std::int64_t jobsCompleted = 0;
  std::int64_t tasksCompleted = 0;
  std::int64_t tasksFailed = 0;
  std::int64_t speculativeLaunches = 0;
};

inline void encodeClusterStats(rpc::Encoder& enc,
                               const ClusterStatsWire& s) {
  enc.putDouble(s.simNow);
  enc.putDouble(s.faultEndedAt);
  enc.putDouble(s.sadcCpuSeconds);
  enc.putDouble(s.hadoopLogCpuSeconds);
  enc.putDouble(s.straceCpuSeconds);
  enc.putI64(s.sadcMemoryBytes);
  enc.putI64(s.hadoopLogMemoryBytes);
  enc.putI64(s.straceMemoryBytes);
  enc.putI64(s.jobsSubmitted);
  enc.putI64(s.jobsCompleted);
  enc.putI64(s.tasksCompleted);
  enc.putI64(s.tasksFailed);
  enc.putI64(s.speculativeLaunches);
}

inline ClusterStatsWire decodeClusterStats(rpc::Decoder& dec) {
  ClusterStatsWire s;
  s.simNow = dec.getDouble();
  s.faultEndedAt = dec.getDouble();
  s.sadcCpuSeconds = dec.getDouble();
  s.hadoopLogCpuSeconds = dec.getDouble();
  s.straceCpuSeconds = dec.getDouble();
  s.sadcMemoryBytes = dec.getI64();
  s.hadoopLogMemoryBytes = dec.getI64();
  s.straceMemoryBytes = dec.getI64();
  s.jobsSubmitted = dec.getI64();
  s.jobsCompleted = dec.getI64();
  s.tasksCompleted = dec.getI64();
  s.tasksFailed = dec.getI64();
  s.speculativeLaunches = dec.getI64();
  return s;
}

}  // namespace asdf::net
