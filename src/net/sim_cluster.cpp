#include "net/sim_cluster.h"

namespace asdf::net {

SimCluster::SimCluster(sim::SimEngine& engine, int slaves,
                       std::uint64_t seed, const faults::FaultSpec& fault,
                       double mixChangeTime,
                       const topology::TopologySpec& topology)
    : cluster({.slaveCount = slaves, .topology = topology}, seed * 6151 + 3,
              engine),
      gridmix(cluster, {.mixChangeTime = mixChangeTime}, seed * 7411 + 1),
      hub(cluster, /*attachTime=*/0.0),
      injector(cluster, fault) {
  // The hub and the injector schedule nothing: starting the cluster and
  // then the workload here keeps the events in recipe order.
  cluster.start();
  gridmix.start();
}

ClusterStatsWire SimCluster::stats() {
  ClusterStatsWire stats;
  stats.simNow = cluster.engine().now();
  stats.faultEndedAt = injector.endedAt();
  stats.sadcCpuSeconds = hub.sadcCpuSeconds();
  stats.hadoopLogCpuSeconds = hub.hadoopLogCpuSeconds();
  stats.straceCpuSeconds = hub.straceCpuSeconds();
  stats.sadcMemoryBytes = static_cast<std::int64_t>(hub.sadcMemoryBytes());
  stats.hadoopLogMemoryBytes =
      static_cast<std::int64_t>(hub.hadoopLogMemoryBytes());
  stats.straceMemoryBytes =
      static_cast<std::int64_t>(hub.straceMemoryBytes());
  stats.jobsSubmitted = cluster.jobTracker().jobsSubmitted();
  stats.jobsCompleted = cluster.jobTracker().jobsCompleted();
  stats.speculativeLaunches = cluster.jobTracker().speculativeLaunches();
  for (int i = 1; i <= cluster.slaveCount(); ++i) {
    stats.tasksCompleted += cluster.taskTracker(i).completedTasks();
    stats.tasksFailed += cluster.taskTracker(i).failedTasks();
  }
  return stats;
}

}  // namespace asdf::net
