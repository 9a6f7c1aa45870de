// Monitoring-plane fault injection.
//
// Orthogonal to the six Table 2 application faults: these faults break
// the *collection* plane itself — the per-node rpcd daemons and their
// RPC channels — to exercise RpcClient's timeout/retry/breaker path and
// the analysis modules' degraded-mode semantics. A monitoring fault
// never perturbs the monitored workload; a node whose collectors are
// down is still perfectly healthy as far as Hadoop is concerned, and
// the pipeline must report it as "unmonitorable", not "faulty".
#pragma once

#include <vector>

#include "common/types.h"
#include "rpc/rpc_client.h"
#include "sim/engine.h"

namespace asdf::faults {

enum class MonitoringFaultKind : int {
  kNone = 0,
  kCrash,      // daemon process dies: connections are refused
  kHang,       // daemon accepts but never answers: every call times out
  kSlow,       // daemon answers slowly: latency x slowFactor
  kPartition,  // node unreachable: all channels fail fast
};

const char* monitoringFaultName(MonitoringFaultKind kind);

struct MonitoringFaultSpec {
  MonitoringFaultKind kind = MonitoringFaultKind::kNone;
  NodeId node = kInvalidNode;  // slave id (1-based)
  /// Daemon the fault targets; ignored when allDaemons (the default)
  /// or when kind == kPartition (partitions hit every channel).
  rpc::Daemon daemon = rpc::Daemon::kSadc;
  bool allDaemons = true;
  SimTime startTime = 0.0;
  SimTime endTime = kNoTime;  // kNoTime = broken until the run ends
  double slowFactor = 250.0;  // for kSlow; default pushes past timeout
};

/// Arms one monitoring fault: activation/deactivation events flip the
/// RpcClient's fault board on the engine schedule. Keep alive for the
/// whole run.
class MonitoringFaultInjector {
 public:
  MonitoringFaultInjector(sim::SimEngine& engine,
                          rpc::MonitoringFaultBoard& board,
                          MonitoringFaultSpec spec);

  MonitoringFaultInjector(const MonitoringFaultInjector&) = delete;
  MonitoringFaultInjector& operator=(const MonitoringFaultInjector&) =
      delete;

  /// Schedules activation (and deactivation when endTime is set).
  void arm();

  bool active() const { return active_; }
  const MonitoringFaultSpec& spec() const { return spec_; }

 private:
  void apply(bool on);

  sim::SimEngine& engine_;
  rpc::MonitoringFaultBoard& board_;
  MonitoringFaultSpec spec_;
  bool active_ = false;
};

}  // namespace asdf::faults
