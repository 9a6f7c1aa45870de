// The simulated monitored cluster (DESIGN.md §9).
//
// One recipe for every process that hosts the simulation — the sim
// harness, asdf_rpcd's sim source and asdfd: an engine-bound
// hadoop::Cluster, a GridMix workload, both started, the per-node
// collection daemons behind an RpcHub, and an unarmed FaultInjector.
// Because every host builds the cluster here, one seed yields the same
// cluster wherever it runs, which is what lets a live client observe
// exactly the cluster a sim-transport run simulates in process.
// Callers arm the injector themselves, at the point in their start-up
// where the event order needs it.
#pragma once

#include <cstdint>

#include "faults/faults.h"
#include "hadoop/cluster.h"
#include "net/cluster_stats.h"
#include "rpc/daemons.h"
#include "sim/engine.h"
#include "topology/topology.h"
#include "workload/gridmix.h"

namespace asdf::net {

struct SimCluster {
  /// `mixChangeTime` >= 0 flips the GridMix mix then; `topology` is the
  /// rack fabric (the default is the flat single-rack cluster).
  SimCluster(sim::SimEngine& engine, int slaves, std::uint64_t seed,
             const faults::FaultSpec& fault, double mixChangeTime = -1.0,
             const topology::TopologySpec& topology = {});

  /// Cluster-side accounting at the engine's current time: daemon costs
  /// (Table 3), the fault's end time and job counters (the kStats
  /// payload).
  ClusterStatsWire stats();

  hadoop::Cluster cluster;
  workload::GridMixGenerator gridmix;
  rpc::RpcHub hub;
  faults::FaultInjector injector;
};

}  // namespace asdf::net
