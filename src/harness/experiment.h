// End-to-end experiment runner.
//
// Reproduces the paper's experimental procedure (Section 4.7-4.9):
//
//   1. Train: run the GridMix workload fault-free and collect sadc
//      vectors from every slave; fit the black-box model (per-metric
//      log-sigmas + k-means centroids) offline.
//   2. Run: fresh cluster + GridMix + the full ASDF deployment
//      (fpt-core configured from generated text, sadc_rpcd and
//      hadoop_log_rpcd per slave), with one fault injected on one
//      slave mid-run. Alarms stream out of the print sinks.
//   3. Evaluate: balanced accuracy, false-positive rate, and
//      fingerpointing latency per approach (black-box, white-box,
//      combined), plus the monitoring-cost numbers for Tables 3/4.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bbmodel.h"
#include "analysis/evaluation.h"
#include "core/environment.h"
#include "faults/faults.h"
#include "faults/monitoring_faults.h"
#include "faults/scenarios.h"
#include "harness/pipelines.h"
#include "net/cluster_stats.h"
#include "rpc/rpc_client.h"
#include "rpc/summary.h"
#include "sim/engine.h"
#include "topology/topology.h"

namespace asdf::archive {
class ArchiveWriter;
}  // namespace asdf::archive

namespace asdf::harness {

/// How the collection plane reaches the monitored cluster.
///   kSim    — in-process RpcHub daemons on the simulated clock (the
///             default).
///   kLive   — real framed-TCP sockets to an asdf_rpcd daemon; module
///             cadence is driven by a RealTimeDriver against wall time.
///   kReplay — an ArchiveCollector serving recorded rounds from
///             `archiveDir`; the pipeline runs on the sim clock and
///             reproduces the recording run's alarms byte-identically.
/// Every transport collects through one rpc::RpcClient.
enum class TransportMode : int { kSim = 0, kLive = 1, kReplay = 2 };

struct ExperimentSpec {
  int slaves = 16;
  double duration = 1800.0;       // seconds of monitored run
  double trainDuration = 600.0;   // seconds of fault-free training run
  double trainWarmup = 90.0;      // discarded at the start of training
  std::uint64_t seed = 42;
  int centroids = 8;              // k for k-means
  int threads = 1;                // fpt-core executor width (1 = serial)

  faults::FaultSpec fault;        // type kNone = fault-free run
  PipelineParams pipeline;

  /// Rack fabric of the simulated cluster (DESIGN.md §16). The default
  /// single-rack spec reproduces the flat pre-topology cluster
  /// byte-for-byte on the same seed.
  topology::TopologySpec topology;
  /// Correlated-fault scenario (cls kNone = none). Sim transport only;
  /// mutually exclusive with `fault`.
  faults::ScenarioSpec scenario;

  /// When >= 0, the GridMix mix flips at this time (workload change).
  double mixChangeTime = -1.0;

  /// Gives the collection client the simulated fault gate, so fetches
  /// can fail (timeout/retry/breaker under monitoring faults and packet
  /// loss, degraded analysis). Implied when monitoringFaults is
  /// non-empty. Off by default: without the gate the client never
  /// fails, matching the paper's infallible collection.
  bool faultTolerantRpc = false;
  rpc::RpcPolicy rpcPolicy;
  std::vector<faults::MonitoringFaultSpec> monitoringFaults;

  /// Live transport (transport == kLive): connect to asdf_rpcd at
  /// liveHost:livePort and pump the pipeline with a RealTimeDriver
  /// advancing `realtimeScale` virtual seconds per wall second. The
  /// daemon must be serving the same slaves/seed/fault so the recorded
  /// ground truth applies. Sim-mode runs ignore these fields.
  TransportMode transport = TransportMode::kSim;
  std::string liveHost = "127.0.0.1";
  std::uint16_t livePort = 4588;
  double realtimeScale = 1.0;

  /// Flight recorder. In sim/live modes a non-empty directory records
  /// every collection round there (the --record flag); in replay mode
  /// it names the archive to play back. Empty disables recording.
  std::string archiveDir;
  std::size_t archiveSegmentBytes = 8u << 20;  // recorder rotation size

  /// Aggregation-tier topology (DESIGN.md §12), orthogonal to
  /// `transport`. When `tiered` is set the reduce stage
  /// (agg_bb/agg_wb) splits into several groups; a flat run is one
  /// group of every slave. Alarms are byte-identical for every
  /// grouping on the same seed. Groups cover the slaves in ascending
  /// contiguous ranges: `tierGroups` gives explicit sizes, otherwise
  /// the slaves split evenly across `aggregators` regions
  /// (0 = ~sqrt(slaves)).
  bool tiered = false;
  int aggregators = 0;
  std::vector<int> tierGroups;
  /// Live tiered runs (transport == kLive && tiered): the root fetches
  /// summaries from these aggregator endpoints ("host:port", one per
  /// group, same order as the topology) instead of contacting leaf
  /// daemons itself.
  std::vector<std::string> aggEndpoints;
};

/// The group sizes a spec's topology resolves to: explicit tierGroups
/// win; a tiered spec on a multi-rack topology with no explicit groups
/// and no aggregator count maps racks to aggregation groups; otherwise
/// the slaves split evenly across the aggregator count.
std::vector<int> tierGroupsFor(const ExperimentSpec& spec);

/// Validates a spec's cross-field invariants before a run: slave
/// count, the fault's node (via validateFault), rack layout (via
/// ClusterLayout), explicit tier groups that must cover every slave
/// exactly, and scenario requirements (sim transport, no simultaneous
/// single-node fault, class constraints via validateScenario). Throws
/// ConfigError. trainModel/runExperiment call this; examples may call
/// it early for friendlier errors.
void validateSpec(const ExperimentSpec& spec);

struct RpcChannelReport {
  std::string name;
  /// 1 = leaf collection traffic, 2 = aggregator->root summary
  /// traffic. Tiered runs report Table 4 bandwidth per tier.
  int tier = 1;
  long connects = 0;
  long calls = 0;
  long failedCalls = 0;  // attempts that timed out / were refused
  double staticOverheadKb = 0.0;   // per node
  double perIterationKbPerSec = 0.0;  // per node
};

struct ExperimentResult {
  analysis::AlarmSeries blackBox;
  analysis::AlarmSeries whiteBox;
  analysis::GroundTruth truth;
  double simulatedSeconds = 0.0;

  /// Deterministic scenario event log (scenario runs only): two runs
  /// of one spec produce identical logs.
  std::vector<faults::ScenarioEvent> scenarioEvents;

  // Monitoring cost (Table 3).
  double sadcRpcdCpuPct = 0.0;      // per node, % of one core
  double hadoopLogRpcdCpuPct = 0.0; // per node
  double straceRpcdCpuPct = 0.0;    // per node
  double fptCoreCpuPct = 0.0;       // control node
  double sadcRpcdMemMb = 0.0;
  double hadoopLogRpcdMemMb = 0.0;
  double straceRpcdMemMb = 0.0;
  double fptCoreMemMb = 0.0;

  // Bandwidth (Table 4).
  std::vector<RpcChannelReport> rpcChannels;

  // Monitoring-plane robustness (zero retries and failures unless the
  // run can fail collections).
  long rpcRounds = 0;
  long rpcRetries = 0;
  long rpcFailedRounds = 0;
  long rpcFastFails = 0;       // rounds rejected by an open breaker
  long rpcBreakerOpens = 0;
  /// Degradation transitions from the analysis modules, sorted by
  /// (time, channel) for deterministic cross-executor comparison.
  std::vector<core::MonitoringEvent> monitoringEvents;

  // Cluster health (sanity).
  long jobsSubmitted = 0;
  long jobsCompleted = 0;
  long tasksCompleted = 0;
  long tasksFailed = 0;
  long speculativeLaunches = 0;
  long syncDroppedSeconds = 0;
};

/// Per-approach evaluation of one experiment.
struct ApproachSummary {
  analysis::EvalResult eval;
  double latencySeconds = -1.0;
};

struct ExperimentSummary {
  ApproachSummary blackBox;
  ApproachSummary whiteBox;
  ApproachSummary combined;
};

/// Step 1: trains the black-box model on a fault-free run.
analysis::BlackBoxModel trainModel(const ExperimentSpec& spec);

/// Steps 2: runs the monitored experiment with the given model; a
/// non-null `attempts` sees every attempt of the control node's client.
ExperimentResult runExperiment(const ExperimentSpec& spec,
                               const analysis::BlackBoxModel& model,
                               rpc::AttemptSink* attempts = nullptr);

/// Step 3: evaluates recorded alarms against the ground truth.
ExperimentSummary summarize(const ExperimentResult& result);

/// The parts of a control-node run that differ by transport or role:
/// where the samples come from, which pipeline runs and where its
/// summaries go, how it is pumped, and where ground truth and Table 3
/// come from. runControlNode does everything else.
struct Plane {
  rpc::LiveCollector* collector = nullptr;
  /// Sim fault gate for the client; null = fault-free collection.
  hadoop::Cluster* faultGate = nullptr;
  /// Live sockets sleep each backoff in wall time.
  bool realBackoff = false;
  /// Recorder meta source; null for replay, whose archiveDir is the
  /// archive being played.
  const char* recordAs = nullptr;
  /// The fpt-core configuration; empty = buildCombinedConfig of the
  /// spec's pipeline.
  std::string config;
  /// A regional aggregator's board, provided to the agg modules as
  /// "summary_board" so they publish their windows there.
  rpc::SummaryBoard* board = nullptr;
  /// Runs once fpt-core is configured, before the pipeline is pumped.
  std::function<void(rpc::RpcClient&)> arm;
  /// Sees every attempt of the client; null = none.
  rpc::AttemptSink* attempts = nullptr;
  /// Advances the pipeline through spec.duration.
  std::function<void()> drive;
  /// Cluster-side accounting after the run: daemon costs (Table 3),
  /// fault end time and job counters; nullopt when unavailable. Unset
  /// where no daemon costs are known (replay, an aggregator).
  std::function<std::optional<net::ClusterStatsWire>()> stats;
  /// Replaces the spec's ground truth where the plane knows better.
  std::function<void(ExperimentResult&)> truth;
};

/// The control node: one RpcClient over the plane's collector (plus the
/// flight recorder, which ends with a truth record), fpt-core running
/// the plane's pipeline, and the result's alarms, Table 3/4 accounting
/// and robustness counters. Throws ConfigError when the collector
/// serves fewer slaves than the spec monitors. Every transport's
/// control node and each live aggregator region run through here.
ExperimentResult runControlNode(const ExperimentSpec& spec,
                                const analysis::BlackBoxModel& model,
                                sim::SimEngine& engine, const Plane& plane);

// Result bookkeeping shared by the control node and the live tiered
// root (harness/aggregator.h), so both report alike.

/// Orders result.monitoringEvents by (time, channel), stably.
void sortMonitoringEvents(ExperimentResult& result);

/// Appends a Table 4 report for every channel that carried a call.
void recordChannelReports(ExperimentResult& result,
                          const rpc::TransportRegistry& transports,
                          const ExperimentSpec& spec);

/// Ground truth and run length from the spec's single-node fault.
void recordSpecTruth(ExperimentResult& result, const ExperimentSpec& spec);

/// The flight recorder for spec.archiveDir, tagged `source` in its meta
/// frame; nullptr when recording is off.
std::unique_ptr<archive::ArchiveWriter> makeRecorder(
    const ExperimentSpec& spec, const std::string& source);

}  // namespace asdf::harness
