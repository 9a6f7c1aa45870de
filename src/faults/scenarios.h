// Correlated-fault scenario library (DESIGN.md §16).
//
// The Table 2 injectors (faults.h) each break exactly one node, as in
// the paper. Production trouble is rarely that polite: this library
// layers four *correlated* scenario classes on the rack topology —
// compound failures whose blast radius spans rack boundaries and whose
// ground truth may name several culprits at once:
//
//   RackPartition  — a rack's ToR uplink collapses to a residual
//                    trickle; every node in the rack is a culprit
//                    (their cross-rack shuffle and replication stall
//                    together, while within-rack traffic still flows).
//   CascadeHotspot — one node's DiskHog degrades its disk, and the
//                    emergency re-replication it triggers has the
//                    node's rack peers push repair traffic through the
//                    shared uplink — one sick node, a whole rack's
//                    shuffle slowed. The culprit is the hog node
//                    alone; flagged peers count as false positives,
//                    which is precisely the stress the per-class
//                    accuracy report exists to expose.
//   NoisyNeighbor  — several co-racked multi-tenant nodes run bursty
//                    foreign jobs (CPU + cross-rack egress) gated by a
//                    deterministic on/off process; all tenants are
//                    culprits, but their intermittent signature defeats
//                    naive thresholding between bursts.
//   GrayFailure    — one slow-but-alive node: a degraded disk plus
//                    intermittent controller stalls. No crash, no log
//                    error — only a subtle statistical drift.
//
// Determinism contract: a scenario is a pure function of its spec
// (including `seed`). Two runs of the same spec produce byte-identical
// event logs and byte-identical alarms; the contract is CI-gated by
// bench_scenarios' `deterministic` pin and the ScenarioInjector tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "faults/faults.h"
#include "hadoop/cluster.h"

namespace asdf::faults {

enum class ScenarioClass : int {
  kNone = 0,
  kRackPartition,
  kCascadeHotspot,
  kNoisyNeighbor,
  kGrayFailure,
};

const char* scenarioName(ScenarioClass cls);
/// Parses a scenario name; accepts both the canonical names
/// ("RackPartition") and the CLI short forms ("partition", "cascade",
/// "noisy-neighbor", "gray"); kNone for ""/"none". Throws ConfigError
/// on unknown names.
ScenarioClass scenarioFromName(const std::string& name);
/// The four injectable scenario classes, in matrix order.
const std::vector<ScenarioClass>& allScenarios();

struct ScenarioSpec {
  ScenarioClass cls = ScenarioClass::kNone;
  /// Target rack (partition / cascade / noisy-neighbor); -1 picks the
  /// last rack, which exercises ragged layouts.
  int rack = -1;
  /// Target node (cascade hog / gray node / first noisy tenant);
  /// kInvalidNode picks the target rack's first node.
  NodeId node = kInvalidNode;
  SimTime startTime = 0.0;
  SimTime endTime = kNoTime;  // kNoTime = active until the run ends
  /// Scenario-local random stream (noisy bursts, gray stalls). Kept
  /// separate from the cluster's stream so the scenario's randomness
  /// is reproducible in isolation.
  std::uint64_t seed = 1;

  // Tunables.
  double partitionResidualFactor = 0.02;   // uplink capacity left
  double cascadeDiskBytes = 80.0e9;        // hog write total
  double cascadeRepairBytesPerSec = 60.0e6;  // per rack peer, cross-rack
  int noisyTenants = 3;
  double noisyCpuCores = 2.0;
  double noisyTxBytesPerSec = 40.0e6;      // per tenant burst egress
  double noisyBurstOnProbability = 1.0 / 15.0;   // off -> on per tick
  double noisyBurstOffProbability = 1.0 / 20.0;  // on -> off per tick
  double grayDiskFactor = 0.35;            // disk capacity multiplier
  double grayStallProbability = 0.05;      // stall ticks
  double grayStallCores = 0.8;             // CPU burned per stall tick
};

/// One line of a scenario's deterministic event log.
struct ScenarioEvent {
  SimTime time = 0.0;
  std::string what;
};

/// Throws ConfigError when the spec cannot run on the given layout
/// (wrong transport is the harness's concern; this checks class
/// requirements, rack/node ranges, times and tunables). Scenario
/// classes that contend on uplinks (partition, cascade, noisy)
/// require a multi-rack layout; a gray failure runs on any.
void validateScenario(const ScenarioSpec& spec,
                      const topology::ClusterLayout& layout);

/// Arms a correlated scenario on a cluster, mirroring FaultInjector:
/// activation/deactivation are scheduled on the cluster's engine, and
/// the injector must outlive the run.
class ScenarioInjector {
 public:
  ScenarioInjector(hadoop::Cluster& cluster, ScenarioSpec spec);
  ~ScenarioInjector();

  ScenarioInjector(const ScenarioInjector&) = delete;
  ScenarioInjector& operator=(const ScenarioInjector&) = delete;

  void arm();

  bool active() const { return active_; }
  /// The spec with rack/node defaults resolved against the layout.
  const ScenarioSpec& spec() const { return spec_; }

  /// Ground-truth culprit slave indices (0-based), ascending.
  std::vector<int> culpritIndices() const;

  /// Deterministic event log: state transitions, burst flips, stall
  /// ticks. Two runs of one spec produce identical logs.
  const std::vector<ScenarioEvent>& events() const { return events_; }

  /// When the scenario stopped being active (kNoTime while active).
  SimTime endedAt() const { return endedAt_; }

 private:
  void activate();
  void deactivate();
  void installCascadeHook();
  void installNoisyHook();
  void installGrayHook();
  void logEvent(SimTime time, std::string what);

  hadoop::Cluster& cluster_;
  ScenarioSpec spec_;
  Rng rng_;
  bool active_ = false;
  int hookId_ = -1;
  SimTime endedAt_ = kNoTime;
  std::vector<ScenarioEvent> events_;

  // Cascade state.
  DiskHogWriter cascadeHog_;
  struct RepairFlow {
    NodeId peer = kInvalidNode;
    int hNic = -1;
    topology::UplinkFlow flow;
  };
  std::vector<RepairFlow> repairFlows_;

  // Noisy-neighbor state.
  struct Tenant {
    NodeId node = kInvalidNode;
    bool burst = false;
    int hCpu = -1;
    int hNic = -1;
    topology::UplinkFlow flow;
  };
  std::vector<Tenant> tenants_;

  // Gray state.
  double grayOriginalDiskCapacity_ = -1.0;
  bool grayStallThisTick_ = false;
  int grayCpuHandle_ = -1;
  long grayStallCount_ = 0;
};

}  // namespace asdf::faults
