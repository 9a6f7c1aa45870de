// Scaling study: accuracy and monitoring cost versus cluster size.
//
// The paper evaluates at 50 slaves and argues the aggregate monitoring
// bandwidth stays "on the order of 1 MB/s even when monitoring
// hundreds of nodes". This bench sweeps the slave count (median peer
// comparison should *improve* with more peers, per-node monitoring
// cost should stay flat, aggregate bandwidth should grow linearly).
//
// The default sweep stops at 50 slaves (the paper's scale); pass
// --max-nodes=500 to extend through the 100/250/500 points, or
// --nodes=N to run a single cluster size (what the CI bench-smoke job
// does at 100 nodes with a reduced duration). --json emits the
// machine-independent metrics (accuracies, bandwidth) plus wall time
// for scripts/check_bench_regression.
//
// Flags: --max-nodes=50 | --nodes=N, --duration=1000,
//        --train-duration=350, --seed=42, --json
#include <chrono>
#include <vector>

#include "bench_util.h"

using namespace asdf;

namespace {

struct Point {
  int slaves = 0;
  double bbAccuracy = 0.0;
  double wbAccuracy = 0.0;
  double perNodeKb = 0.0;
  double aggregateKb = 0.0;
  double wallSeconds = 0.0;
};

Point runPoint(int slaves, double duration, double trainDuration,
               std::uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.slaves = slaves;
  spec.duration = duration;
  spec.trainDuration = trainDuration;
  spec.seed = seed;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = slaves / 2;
  spec.fault.startTime = trainDuration;
  const auto start = std::chrono::steady_clock::now();
  const analysis::BlackBoxModel model = harness::trainModel(spec);
  const harness::ExperimentResult result = harness::runExperiment(spec, model);
  const harness::ExperimentSummary summary = harness::summarize(result);
  Point p;
  p.slaves = slaves;
  p.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  p.bbAccuracy = summary.blackBox.eval.balancedAccuracyPct();
  p.wbAccuracy = summary.whiteBox.eval.balancedAccuracyPct();
  for (const auto& ch : result.rpcChannels) {
    p.perNodeKb += ch.perIterationKbPerSec;
  }
  p.aggregateKb = p.perNodeKb * slaves;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"max-nodes", "nodes", "duration", "train-duration",
                       "seed", "json"});
  modules::registerBuiltinModules();
  const long maxNodes = bench::flagInt(argc, argv, "max-nodes", 50);
  const long onlyNodes = bench::flagInt(argc, argv, "nodes", 0);
  const double duration = bench::flagDouble(argc, argv, "duration", 1000.0);
  const double trainDuration =
      bench::flagDouble(argc, argv, "train-duration", 350.0);
  const auto seed =
      static_cast<std::uint64_t>(bench::flagInt(argc, argv, "seed", 42));
  const bool json = bench::flagPresent(argc, argv, "json");

  std::vector<int> sweep;
  if (onlyNodes > 0) {
    sweep.push_back(static_cast<int>(onlyNodes));
  } else {
    for (int slaves : {6, 12, 24, 50, 100, 250, 500}) {
      if (slaves > maxNodes) break;
      sweep.push_back(slaves);
    }
  }

  if (!json) {
    std::printf("Scaling: cluster size sweep (CPUHog, %zu points, "
                "%.0f s runs)\n\n",
                sweep.size(), duration);
    bench::printRule();
    std::printf("%8s %14s %14s %18s %16s %10s\n", "slaves", "BB accuracy %",
                "WB accuracy %", "per-node kB/s", "aggregate kB/s",
                "wall (s)");
    bench::printRule();
  }

  std::vector<Point> points;
  for (int slaves : sweep) {
    points.push_back(runPoint(slaves, duration, trainDuration, seed));
    const Point& p = points.back();
    if (!json) {
      std::printf("%8d %14.1f %14.1f %18.2f %16.1f %10.1f\n", p.slaves,
                  p.bbAccuracy, p.wbAccuracy, p.perNodeKb, p.aggregateKb,
                  p.wallSeconds);
      std::fflush(stdout);
    }
  }

  if (json) {
    std::printf("{\n  \"bench\": \"scale_nodes\",\n"
                "  \"duration\": %.0f, \"train_duration\": %.0f, "
                "\"seed\": %llu,\n  \"points\": [\n",
                duration, trainDuration,
                static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::printf("    {\"slaves\": %d, \"bb_accuracy_pct\": %.1f, "
                  "\"wb_accuracy_pct\": %.1f, \"per_node_kb_per_sec\": %.2f, "
                  "\"aggregate_kb_per_sec\": %.1f, \"wall_s\": %.1f}%s\n",
                  p.slaves, p.bbAccuracy, p.wbAccuracy, p.perNodeKb,
                  p.aggregateKb, p.wallSeconds,
                  i + 1 < points.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    bench::printRule();
    std::printf("expected: flat per-node cost, linear aggregate, accuracy "
                "stable or improving with more peers\n");
  }
  return 0;
}
