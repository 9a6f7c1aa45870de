#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "archive/collector.h"
#include "harness/aggregator.h"
#include "archive/writer.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/fpt_core.h"
#include "core/realtime.h"
#include "hadoop/cluster.h"
#include "metrics/sadc.h"
#include "modules/modules.h"
#include "net/live_transport.h"
#include "net/sim_cluster.h"
#include "sim/engine.h"
#include "workload/gridmix.h"

namespace asdf::harness {
namespace {

/// Routes alarms and monitoring events into `result` (shared between
/// the sim and live transports so both record identically).
void wireSinks(core::Environment& env, ExperimentResult& result,
               std::mutex& eventMutex) {
  env.alarmSink = [&result](const core::Alarm& alarm) {
    analysis::AlarmRecord record;
    record.time = alarm.time;
    record.flags = alarm.flags;
    record.scores = alarm.scores;
    record.health = alarm.health;
    if (alarm.channel == "BlackBoxAlarm") {
      result.blackBox.push_back(std::move(record));
    } else if (alarm.channel == "WhiteBoxAlarm") {
      result.whiteBox.push_back(std::move(record));
    }
  };
  // Both analysis instances may emit events concurrently under a pool
  // executor; serialize appends and order the series after the run.
  env.monitoringSink = [&result,
                        &eventMutex](const core::MonitoringEvent& event) {
    std::lock_guard<std::mutex> lock(eventMutex);
    result.monitoringEvents.push_back(event);
  };
}

void recordClientCounters(ExperimentResult& result, rpc::RpcClient& client) {
  result.rpcRounds = client.totalRounds();
  result.rpcRetries = client.totalRetries();
  result.rpcFailedRounds = client.totalFailedRounds();
  result.rpcFastFails = client.totalFastFails();
  result.rpcBreakerOpens = client.totalBreakerOpens();
}

archive::TruthRecord truthFromResult(const ExperimentResult& result) {
  archive::TruthRecord truth;
  truth.slaveIndex = result.truth.slaveIndex;
  truth.faultStart = result.truth.faultStart;
  truth.faultEnd = result.truth.faultEnd;
  truth.simulatedSeconds = result.simulatedSeconds;
  truth.jobsSubmitted = result.jobsSubmitted;
  truth.jobsCompleted = result.jobsCompleted;
  truth.tasksCompleted = result.tasksCompleted;
  truth.tasksFailed = result.tasksFailed;
  truth.speculativeLaunches = result.speculativeLaunches;
  truth.syncDroppedSeconds = result.syncDroppedSeconds;
  return truth;
}

/// Applies a cluster-side snapshot: the observed fault end, Table 3
/// daemon costs and job counters.
void recordClusterStats(ExperimentResult& result,
                        const net::ClusterStatsWire& stats,
                        const ExperimentSpec& spec) {
  // A fault can end before the run does (a scheduled endTime, or the
  // DiskHog completing its 20 GB write); windows after that are
  // negatives.
  if (stats.faultEndedAt != kNoTime) {
    result.truth.faultEnd = stats.faultEndedAt;
  }
  // Table 3: CPU percentages are of one core per node, relative to the
  // simulated wall-clock.
  const double nodeSeconds = spec.duration * spec.slaves;
  result.sadcRpcdCpuPct = 100.0 * stats.sadcCpuSeconds / nodeSeconds;
  result.hadoopLogRpcdCpuPct = 100.0 * stats.hadoopLogCpuSeconds / nodeSeconds;
  result.straceRpcdCpuPct = 100.0 * stats.straceCpuSeconds / nodeSeconds;
  result.sadcRpcdMemMb =
      static_cast<double>(stats.sadcMemoryBytes) / spec.slaves / 1.0e6;
  result.hadoopLogRpcdMemMb =
      static_cast<double>(stats.hadoopLogMemoryBytes) / spec.slaves / 1.0e6;
  result.straceRpcdMemMb =
      static_cast<double>(stats.straceMemoryBytes) / spec.slaves / 1.0e6;
  result.jobsSubmitted = stats.jobsSubmitted;
  result.jobsCompleted = stats.jobsCompleted;
  result.tasksCompleted = stats.tasksCompleted;
  result.tasksFailed = stats.tasksFailed;
  result.speculativeLaunches = stats.speculativeLaunches;
}

}  // namespace

ExperimentResult runControlNode(const ExperimentSpec& spec,
                                const analysis::BlackBoxModel& model,
                                sim::SimEngine& engine, const Plane& plane) {
  rpc::LiveCollector& collector = *plane.collector;
  // The client tracks nodes 1..collector.slaves(); polling a node past
  // that would fail mid-run, so refuse before anything starts.
  if (collector.slaves() < spec.slaves) {
    throw ConfigError("collector serves " +
                      std::to_string(collector.slaves()) +
                      " slaves but the spec monitors " +
                      std::to_string(spec.slaves));
  }
  if (collector.slaves() > spec.slaves) {
    logWarn("collector serves " + std::to_string(collector.slaves()) +
            " slaves but the spec monitors only " +
            std::to_string(spec.slaves));
  }
  const std::uint64_t clientSeed = spec.seed * 2654435761ULL + 97;
  std::unique_ptr<rpc::RpcClient> client =
      plane.faultGate != nullptr
          ? std::make_unique<rpc::RpcClient>(*plane.faultGate, collector,
                                             spec.rpcPolicy, clientSeed)
          : std::make_unique<rpc::RpcClient>(collector, spec.rpcPolicy,
                                             clientSeed, plane.realBackoff);
  std::unique_ptr<archive::ArchiveWriter> recorder =
      plane.recordAs != nullptr ? makeRecorder(spec, plane.recordAs)
                                : nullptr;
  if (recorder != nullptr) client->setObserver(recorder.get());
  client->setAttemptSink(plane.attempts);

  modules::HadoopLogSync sync;
  ExperimentResult result;

  core::Environment env;
  env.provide("bb_model", const_cast<analysis::BlackBoxModel*>(&model));
  env.provide("hl_sync", &sync);
  env.provide("rpc_client", client.get());
  env.provide("node_health", &client->health());
  // Tiered analysis reduces per group before the root merge; the agg
  // modules charge the summary traffic to tier-2 channels in the
  // client's registry so Table 4 reports bandwidth per tier. (FptCore
  // copies the environment, so this must precede its construction.)
  if (spec.tiered) env.provide("transports", &client->transports());
  if (plane.board != nullptr) env.provide("summary_board", plane.board);
  std::mutex eventMutex;
  wireSinks(env, result, eventMutex);

  core::FptCore fpt(engine, env);
  fpt.setExecutor(core::makeExecutor(spec.threads));
  if (plane.config.empty()) {
    PipelineParams pipeline = spec.pipeline;
    pipeline.slaves = spec.slaves;
    if (spec.tiered) pipeline.tierGroups = tierGroupsFor(spec);
    fpt.configureFromText(buildCombinedConfig(pipeline));
  } else {
    fpt.configureFromText(plane.config);
  }

  if (plane.arm) plane.arm(*client);
  plane.drive();

  sortMonitoringEvents(result);
  recordSpecTruth(result, spec);
  if (plane.stats) {
    if (const std::optional<net::ClusterStatsWire> stats = plane.stats()) {
      recordClusterStats(result, *stats, spec);
    }
  }
  if (plane.truth) plane.truth(result);
  result.fptCoreCpuPct = 100.0 * fpt.cpuSeconds() / spec.duration;
  result.fptCoreMemMb =
      static_cast<double>(fpt.memoryFootprintBytes()) / 1.0e6;
  // Table 4 accounting. Channels that never carried a call (e.g. the
  // strace extension when its module is not configured) are omitted.
  recordChannelReports(result, client->transports(), spec);
  result.syncDroppedSeconds = sync.droppedSeconds();
  recordClientCounters(result, *client);
  if (recorder != nullptr) {
    recorder->writeTruth(truthFromResult(result));
    recorder->close();
  }
  return result;
}

namespace {

/// Sim transport: the simulated cluster, its RpcHub daemons and the
/// fault injectors all run on the engine that pumps fpt-core.
ExperimentResult runSimExperiment(const ExperimentSpec& spec,
                                  const analysis::BlackBoxModel& model,
                                  Plane plane) {
  sim::SimEngine engine;
  net::SimCluster sim(engine, spec.slaves, spec.seed, spec.fault,
                      spec.mixChangeTime, spec.topology);
  std::unique_ptr<faults::ScenarioInjector> scenario;
  std::vector<std::unique_ptr<faults::MonitoringFaultInjector>> monInjectors;

  plane.collector = &sim.hub;
  // Collection failures (the fault gate) are opt-in; injecting a
  // monitoring fault implies them.
  if (spec.faultTolerantRpc || !spec.monitoringFaults.empty()) {
    plane.faultGate = &sim.cluster;
  }
  plane.recordAs = "sim";
  plane.arm = [&](rpc::RpcClient& client) {
    // Per-process sadc rows reach only the client's observer (the flight
    // recorder); without one they are drawn but not computed. Arming
    // precedes the first tick.
    sim.cluster.setProcessRows(client.observer() != nullptr);
    sim.injector.arm();
    if (spec.scenario.cls != faults::ScenarioClass::kNone) {
      scenario = std::make_unique<faults::ScenarioInjector>(sim.cluster,
                                                            spec.scenario);
      scenario->arm();
    }
    for (const faults::MonitoringFaultSpec& mf : spec.monitoringFaults) {
      monInjectors.push_back(
          std::make_unique<faults::MonitoringFaultInjector>(
              engine, client.faults(), mf));
      monInjectors.back()->arm();
    }
  };
  plane.drive = [&] { engine.runUntil(spec.duration); };
  plane.stats = [&] { return std::optional(sim.stats()); };
  plane.truth = [&](ExperimentResult& result) {
    if (scenario == nullptr) return;
    result.truth.culprits = scenario->culpritIndices();
    result.truth.slaveIndex =
        result.truth.culprits.empty() ? -1 : result.truth.culprits.front();
    result.truth.faultStart = scenario->spec().startTime;
    result.truth.faultEnd = scenario->endedAt() != kNoTime
                                ? scenario->endedAt()
                                : scenario->spec().endTime;
    result.scenarioEvents = scenario->events();
  };
  return runControlNode(spec, model, engine, plane);
}

/// Live transport: the monitored cluster lives inside asdf_rpcd; the
/// control node here runs only fpt-core + the RpcClient over real
/// sockets, pumped by a RealTimeDriver. Monitoring-fault injectors are
/// a sim-transport concept (there is no fault gate on real attempts)
/// and are ignored in this mode — live failures are real timeouts and
/// refused connections.
ExperimentResult runLiveExperiment(const ExperimentSpec& spec,
                                   const analysis::BlackBoxModel& model,
                                   Plane plane) {
  net::LiveTransport::Options topts;
  topts.host = spec.liveHost;
  topts.port = spec.livePort;
  topts.timeoutSeconds = spec.rpcPolicy.timeoutSeconds;
  topts.backoffSeed = spec.seed * 2654435761ULL + 211;
  net::LiveTransport transport(topts);
  sim::SimEngine engine;

  plane.collector = &transport;
  plane.realBackoff = true;
  plane.recordAs = "live";
  plane.drive = [&] {
    core::RealTimeDriver driver(engine, spec.realtimeScale);
    driver.run(spec.duration / spec.realtimeScale);
  };
  // Ground truth comes from the spec (the caller started asdf_rpcd
  // with the same fault); the daemon reports the observed end time.
  plane.stats = [&]() -> std::optional<net::ClusterStatsWire> {
    net::ClusterStatsWire stats;
    if (transport.fetchStats(spec.duration, stats)) return stats;
    logWarn("live transport: final kStats fetch failed; cluster-side "
            "accounting unavailable");
    return std::nullopt;
  };
  return runControlNode(spec, model, engine, plane);
}

/// Replay transport: no cluster, no daemons — an ArchiveCollector
/// serves the recorded rounds to the control node's RpcClient, and the
/// pipeline runs on the sim clock. The module schedule is
/// deterministic, so every fetch finds its archived record and the run
/// reproduces the recording run's alarms byte-for-byte.
ExperimentResult runReplayExperiment(const ExperimentSpec& spec,
                                     const analysis::BlackBoxModel& model,
                                     Plane plane) {
  archive::ArchiveCollector collector(spec.archiveDir);
  sim::SimEngine engine;

  plane.collector = &collector;
  plane.drive = [&] { engine.runUntil(spec.duration); };
  // Ground truth: the recorded run's truth record when the recorder
  // shut down cleanly, else the meta frame's fault parameters (a killed
  // recorder still leaves a localizable archive).
  plane.truth = [&](ExperimentResult& result) {
    if (const std::optional<archive::TruthRecord>& truth = collector.truth()) {
      result.truth.slaveIndex = truth->slaveIndex;
      result.truth.faultStart = truth->faultStart;
      result.truth.faultEnd = truth->faultEnd;
      result.jobsSubmitted = truth->jobsSubmitted;
      result.jobsCompleted = truth->jobsCompleted;
      result.tasksCompleted = truth->tasksCompleted;
      result.tasksFailed = truth->tasksFailed;
      result.speculativeLaunches = truth->speculativeLaunches;
      return;
    }
    const archive::ArchiveMeta& meta = collector.meta();
    result.truth.slaveIndex =
        meta.faultType == 0 ? -1 : static_cast<int>(meta.faultNode) - 1;
    result.truth.faultStart = meta.faultStart;
    result.truth.faultEnd = meta.faultEnd;
  };
  return runControlNode(spec, model, engine, plane);
}

}  // namespace

void sortMonitoringEvents(ExperimentResult& result) {
  std::stable_sort(result.monitoringEvents.begin(),
                   result.monitoringEvents.end(),
                   [](const core::MonitoringEvent& a,
                      const core::MonitoringEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.channel < b.channel;
                   });
}

void recordChannelReports(ExperimentResult& result,
                          const rpc::TransportRegistry& transports,
                          const ExperimentSpec& spec) {
  for (const rpc::RpcChannelStats* ch : transports.channels()) {
    if (ch->calls() == 0 && ch->failedCalls() == 0) continue;
    RpcChannelReport report;
    report.name = ch->name();
    report.tier = ch->tier();
    report.connects = ch->connects();
    report.calls = ch->calls();
    report.failedCalls = ch->failedCalls();
    report.staticOverheadKb =
        ch->connects() == 0
            ? 0.0
            : ch->staticOverheadBytes() / ch->connects() / 1024.0;
    report.perIterationKbPerSec =
        ch->totalCallBytes() / spec.slaves / spec.duration / 1024.0;
    result.rpcChannels.push_back(report);
  }
}

void recordSpecTruth(ExperimentResult& result, const ExperimentSpec& spec) {
  result.simulatedSeconds = spec.duration;
  result.truth.slaveIndex =
      spec.fault.type == faults::FaultType::kNone ? -1 : spec.fault.node - 1;
  result.truth.faultStart = spec.fault.startTime;
  result.truth.faultEnd = spec.fault.endTime;
}

std::unique_ptr<archive::ArchiveWriter> makeRecorder(
    const ExperimentSpec& spec, const std::string& source) {
  if (spec.archiveDir.empty()) return nullptr;
  archive::ArchiveWriterOptions opts;
  opts.dir = spec.archiveDir;
  opts.maxSegmentBytes = spec.archiveSegmentBytes;
  archive::ArchiveMeta meta;
  meta.seed = spec.seed;
  meta.slaves = spec.slaves;
  meta.source = source;
  meta.duration = spec.duration;
  meta.trainDuration = spec.trainDuration;
  meta.trainWarmup = spec.trainWarmup;
  meta.centroids = spec.centroids;
  meta.faultType = static_cast<std::uint32_t>(spec.fault.type);
  meta.faultNode = spec.fault.node;
  meta.faultStart = spec.fault.startTime;
  meta.faultEnd = spec.fault.endTime;
  meta.mixChangeTime = spec.mixChangeTime;
  return std::make_unique<archive::ArchiveWriter>(std::move(opts),
                                                  std::move(meta));
}

std::vector<int> tierGroupsFor(const ExperimentSpec& spec) {
  if (!spec.tierGroups.empty()) return spec.tierGroups;
  const int n = spec.slaves;
  // A multi-rack topology is the natural aggregation-tier shape: one
  // aggregator per rack keeps summary traffic off the rack uplinks.
  // An explicit aggregator count overrides the rack mapping.
  if (spec.topology.racks > 1 && spec.aggregators <= 0) {
    return topology::ClusterLayout(n, spec.topology).tierGroups();
  }
  int groups = spec.aggregators;
  if (groups <= 0) {
    // ~sqrt(n) regions keeps both the per-aggregator fan-in and the
    // root fan-in around sqrt(n) (5000 leaves -> ~71 aggregators).
    groups = static_cast<int>(
        std::lround(std::ceil(std::sqrt(static_cast<double>(n)))));
  }
  if (groups < 1) groups = 1;
  if (groups > n) groups = n;
  std::vector<int> sizes(static_cast<std::size_t>(groups), n / groups);
  for (int i = 0; i < n % groups; ++i) {
    sizes[static_cast<std::size_t>(i)] += 1;
  }
  return sizes;
}

void validateSpec(const ExperimentSpec& spec) {
  if (spec.slaves < 1) {
    throw ConfigError("spec: slaves must be >= 1, got " +
                      std::to_string(spec.slaves));
  }
  // Training keeps the seconds after the warm-up; none would leave an
  // empty model that fails only once a run feeds it samples.
  if (spec.trainDuration <= spec.trainWarmup) {
    throw ConfigError(strformat(
        "spec: trainDuration (%g s) must exceed trainWarmup (%g s)",
        spec.trainDuration, spec.trainWarmup));
  }
  faults::validateFault(spec.fault, spec.slaves);
  // The layout constructor enforces the rack-shape invariants
  // (racks >= 1, no empty rack, nodesPerRack covering every slave).
  const topology::ClusterLayout layout(spec.slaves, spec.topology);
  if (!spec.tierGroups.empty()) {
    int covered = 0;
    for (std::size_t i = 0; i < spec.tierGroups.size(); ++i) {
      if (spec.tierGroups[i] < 1) {
        throw ConfigError("spec: tierGroups[" + std::to_string(i) +
                          "] must be >= 1, got " +
                          std::to_string(spec.tierGroups[i]));
      }
      covered += spec.tierGroups[i];
    }
    if (covered != spec.slaves) {
      throw ConfigError("spec: tierGroups cover " + std::to_string(covered) +
                        " slaves but the cluster has " +
                        std::to_string(spec.slaves));
    }
  }
  if (spec.scenario.cls != faults::ScenarioClass::kNone) {
    if (spec.transport != TransportMode::kSim) {
      throw ConfigError(
          "spec: correlated scenarios require the sim transport");
    }
    if (spec.fault.type != faults::FaultType::kNone) {
      throw ConfigError(
          "spec: a correlated scenario and a single-node fault cannot "
          "be injected together");
    }
    // Resolve rack/node placement defaults the same way the injector
    // will, then check the class constraints.
    faults::ScenarioSpec resolved = spec.scenario;
    if (resolved.rack < 0) {
      resolved.rack = resolved.node != kInvalidNode
                          ? layout.rackOf(resolved.node)
                          : layout.racks() - 1;
    }
    if (resolved.node == kInvalidNode && resolved.rack >= 0 &&
        resolved.rack < layout.racks()) {
      resolved.node = layout.hostId(resolved.rack, 0);
    }
    faults::validateScenario(resolved, layout);
  }
}

analysis::BlackBoxModel trainModel(const ExperimentSpec& spec) {
  validateSpec(spec);
  sim::SimEngine engine;
  hadoop::Cluster cluster(
      {.slaveCount = spec.slaves, .topology = spec.topology},
      spec.seed * 7919 + 17, engine);
  // Training reads node and NIC values only.
  cluster.setProcessRows(false);
  workload::GridMixGenerator gridmix(
      cluster, {.mixChangeTime = spec.mixChangeTime}, spec.seed * 104729 + 5);
  cluster.start();
  gridmix.start();

  std::vector<std::vector<double>> training;
  training.reserve(static_cast<std::size_t>(spec.trainDuration) *
                   static_cast<std::size_t>(spec.slaves));
  // Collect one flattened sadc vector per slave per second, after the
  // tick (registered after cluster.start(), so it runs later at each
  // timestamp).
  engine.addPeriodic(1.0, [&] {
    if (engine.now() < spec.trainWarmup) return;
    for (hadoop::Node* node : cluster.slaveNodes()) {
      training.push_back(metrics::flattenNodeVector(node->sadcCollect()));
    }
  }, 1.0);

  engine.runUntil(spec.trainDuration);

  Rng rng(spec.seed * 31337 + 271);
  return analysis::trainBlackBoxModel(training, spec.centroids, rng);
}

ExperimentResult runExperiment(const ExperimentSpec& spec,
                               const analysis::BlackBoxModel& model,
                               rpc::AttemptSink* attempts) {
  validateSpec(spec);
  Plane plane;
  plane.attempts = attempts;
  if (spec.transport == TransportMode::kLive) {
    // Tiered live runs merge aggregator summaries instead of
    // collecting from leaves; the model lives in the aggregators.
    if (spec.tiered) return runTieredLiveExperiment(spec);
    return runLiveExperiment(spec, model, plane);
  }
  if (spec.transport == TransportMode::kReplay) {
    return runReplayExperiment(spec, model, plane);
  }
  return runSimExperiment(spec, model, plane);
}

ExperimentSummary summarize(const ExperimentResult& result) {
  ExperimentSummary summary;
  summary.blackBox.eval = analysis::evaluate(result.blackBox, result.truth);
  summary.blackBox.latencySeconds =
      analysis::fingerpointingLatency(result.blackBox, result.truth);
  summary.whiteBox.eval = analysis::evaluate(result.whiteBox, result.truth);
  summary.whiteBox.latencySeconds =
      analysis::fingerpointingLatency(result.whiteBox, result.truth);
  const analysis::AlarmSeries combined =
      analysis::combineUnion(result.blackBox, result.whiteBox);
  summary.combined.eval = analysis::evaluate(combined, result.truth);
  summary.combined.latencySeconds =
      analysis::fingerpointingLatency(combined, result.truth);
  return summary;
}

}  // namespace asdf::harness
