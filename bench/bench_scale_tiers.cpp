// Scaling study for the aggregation tier: fingerpointing at 5k-10k
// nodes through pre-reduced partials (DESIGN.md §12).
//
// Three runs of the same seeded workload share one trained model:
//
//   flat          — every node's windows travel to one root merge
//   tiered serial — regional agg_bb/agg_wb reduce stages, 1 thread
//   tiered pool   — the same topology on the pooled executor
//
// The tier is only admissible if it changes nothing observable: all
// three runs must produce byte-identical alarm series (the property
// test_partials.cpp proves per-kernel, exercised here at cluster
// scale). On top of that, the per-node monitoring bandwidth must stay
// at the paper's "few kB/s" at every tier — the whole point of
// pre-reduction is that the root's inbound traffic scales with the
// number of regions, not the number of nodes.
//
// Defaults reproduce the 5000-node headline; CI bench-smoke runs
// --nodes=600 --duration=300 against a committed baseline. JSON keys
// use _kbps (not _per_sec) so check_bench_regression gates them, and
// alarms_identical is pinned with --exact.
//
// Flags: --nodes=5000, --aggregators=0 (0 = ~sqrt(nodes)),
//        --threads=4, --duration=600, --train-duration=300, --seed=42,
//        --max-kbps=2.5, --json
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace asdf;

namespace {

struct Run {
  harness::ExperimentResult result;
  double wallSeconds = 0.0;
};

Run timedRun(const harness::ExperimentSpec& spec,
             const analysis::BlackBoxModel& model) {
  Run run;
  const auto start = std::chrono::steady_clock::now();
  run.result = harness::runExperiment(spec, model);
  run.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

bool identicalSeries(const analysis::AlarmSeries& a,
                     const analysis::AlarmSeries& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].flags != b[i].flags ||
        a[i].scores != b[i].scores || a[i].health != b[i].health) {
      return false;
    }
  }
  return true;
}

bool identicalAlarms(const harness::ExperimentResult& a,
                     const harness::ExperimentResult& b) {
  return identicalSeries(a.blackBox, b.blackBox) &&
         identicalSeries(a.whiteBox, b.whiteBox);
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"nodes", "aggregators", "threads", "duration",
                       "train-duration", "seed", "max-kbps", "json"});
  modules::registerBuiltinModules();
  const long nodes = bench::flagInt(argc, argv, "nodes", 5000);
  long aggregators = bench::flagInt(argc, argv, "aggregators", 0);
  const long threads = bench::flagInt(argc, argv, "threads", 4);
  const double duration = bench::flagDouble(argc, argv, "duration", 600.0);
  const double trainDuration =
      bench::flagDouble(argc, argv, "train-duration", 300.0);
  const auto seed =
      static_cast<std::uint64_t>(bench::flagInt(argc, argv, "seed", 42));
  const double maxKbps = bench::flagDouble(argc, argv, "max-kbps", 2.5);
  const bool json = bench::flagPresent(argc, argv, "json");

  if (aggregators <= 0) {
    aggregators = std::lround(std::sqrt(static_cast<double>(nodes)));
  }

  harness::ExperimentSpec spec;
  spec.slaves = static_cast<int>(nodes);
  spec.duration = duration;
  spec.trainDuration = trainDuration;
  spec.seed = seed;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = static_cast<NodeId>(nodes / 2);
  spec.fault.startTime = trainDuration;

  if (!json) {
    std::printf("Tier scaling: %ld nodes, %ld aggregators, %.0f s run\n\n",
                nodes, aggregators, duration);
  }

  const auto trainStart = std::chrono::steady_clock::now();
  const analysis::BlackBoxModel model = harness::trainModel(spec);
  const double trainWall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    trainStart)
          .count();

  const Run flat = timedRun(spec, model);

  harness::ExperimentSpec tieredSpec = spec;
  tieredSpec.tiered = true;
  tieredSpec.aggregators = static_cast<int>(aggregators);
  const Run tieredSerial = timedRun(tieredSpec, model);

  tieredSpec.threads = static_cast<int>(threads);
  const Run tieredPool = timedRun(tieredSpec, model);

  const bool identical = identicalAlarms(flat.result, tieredSerial.result) &&
                         identicalAlarms(flat.result, tieredPool.result);

  // Per-node bandwidth by tier, from the tiered run's Table 4 report:
  // tier 1 is leaf collection (sadc + log rows), tier 2 the pre-reduced
  // region summaries.
  double tierKbps[3] = {0.0, 0.0, 0.0};
  for (const harness::RpcChannelReport& ch : tieredSerial.result.rpcChannels) {
    if (ch.tier >= 1 && ch.tier <= 2) tierKbps[ch.tier] += ch.perIterationKbPerSec;
  }
  const bool bandwidthOk = tierKbps[1] <= maxKbps && tierKbps[2] <= maxKbps;

  const harness::ExperimentSummary summary =
      harness::summarize(tieredSerial.result);

  if (json) {
    std::printf(
        "{\n  \"bench\": \"scale_tiers\",\n"
        "  \"nodes\": %ld, \"aggregators\": %ld, \"threads\": %ld,\n"
        "  \"duration\": %.0f, \"train_duration\": %.0f, \"seed\": %llu,\n"
        "  \"alarms_identical\": %d,\n"
        "  \"bb_accuracy_pct\": %.1f, \"wb_accuracy_pct\": %.1f,\n"
        "  \"tier1_per_node_kbps\": %.3f, \"tier2_per_node_kbps\": %.3f,\n"
        "  \"train_wall_s\": %.1f, \"flat_wall_s\": %.1f,\n"
        "  \"tiered_serial_wall_s\": %.1f, \"tiered_pool_wall_s\": %.1f\n"
        "}\n",
        nodes, aggregators, threads, duration, trainDuration,
        static_cast<unsigned long long>(seed), identical ? 1 : 0,
        summary.blackBox.eval.balancedAccuracyPct(),
        summary.whiteBox.eval.balancedAccuracyPct(), tierKbps[1], tierKbps[2],
        trainWall, flat.wallSeconds, tieredSerial.wallSeconds,
        tieredPool.wallSeconds);
  } else {
    std::printf("  alarms identical (flat / tiered serial / tiered pool): "
                "%s\n",
                identical ? "yes" : "NO");
    std::printf("  accuracy: %.1f%% black-box, %.1f%% white-box\n",
                summary.blackBox.eval.balancedAccuracyPct(),
                summary.whiteBox.eval.balancedAccuracyPct());
    std::printf("  per-node bandwidth: %.3f kB/s tier 1, %.3f kB/s tier 2 "
                "(budget %.1f)\n",
                tierKbps[1], tierKbps[2], maxKbps);
    std::printf("  wall: train %.1f s, flat %.1f s, tiered serial %.1f s, "
                "tiered pool %.1f s\n",
                trainWall, flat.wallSeconds, tieredSerial.wallSeconds,
                tieredPool.wallSeconds);
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: tiered alarms diverge from the flat topology\n");
    return 1;
  }
  if (!bandwidthOk) {
    std::fprintf(stderr,
                 "FAIL: per-node bandwidth over %.1f kB/s budget "
                 "(tier 1 %.3f, tier 2 %.3f)\n",
                 maxKbps, tierKbps[1], tierKbps[2]);
    return 1;
  }
  return 0;
}
