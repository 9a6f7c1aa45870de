// Correlated-scenario matrix with per-class accuracy reporting
// (DESIGN.md §16).
//
// One trained model, then per scenario class (rack partition, cascade
// hotspot, noisy neighbor, gray failure) a monitored run on a
// rack-aware topology, scored per approach. Three invariants are
// computed in-run and pinned exactly by CI:
//
//   flat_identical        — a racks=1 run is byte-identical no matter
//                           what uplink bandwidth the spec names (the
//                           plane must not exist at all when flat)
//   deterministic         — two runs of one scenario spec produce
//                           byte-identical event logs and alarms
//   rows_sum_to_aggregate — per-class confusion counts sum to the
//                           matrix aggregate
//
// Accuracy/FPR/latency land in the baseline at the default tolerance
// (libm differences across toolchains can move kNN boundaries a hair).
//
// Flags: --slaves=12 --racks=3 --uplink-gbps=10 --duration=900
//        --train-duration=420 --seed=42
//        --scenario=partition|cascade|noisy-neighbor|gray|all --json
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/scenario_matrix.h"

using namespace asdf;

namespace {

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

void printRow(const harness::ScenarioOutcome& row, bool last) {
  std::printf(
      "    \"%s\": {\n"
      "      \"culprits\": %zu, \"events\": %zu,\n"
      "      \"bb_accuracy_pct\": %.1f, \"bb_fpr_pct\": %.1f,\n"
      "      \"wb_accuracy_pct\": %.1f, \"wb_fpr_pct\": %.1f,\n"
      "      \"combined_accuracy_pct\": %.1f, \"combined_fpr_pct\": %.1f,\n"
      "      \"combined_latency_s\": %.1f\n"
      "    }%s\n",
      row.name.c_str(), row.culprits.size(), row.eventCount,
      row.blackBox.eval.balancedAccuracyPct(),
      row.blackBox.eval.falsePositiveRatePct(),
      row.whiteBox.eval.balancedAccuracyPct(),
      row.whiteBox.eval.falsePositiveRatePct(),
      row.combined.eval.balancedAccuracyPct(),
      row.combined.eval.falsePositiveRatePct(),
      row.combined.latencySeconds, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"slaves", "racks", "uplink-gbps", "duration",
                       "train-duration", "seed", "scenario", "json"});
  modules::registerBuiltinModules();
  const long slaves = bench::flagInt(argc, argv, "slaves", 12);
  const long racks = bench::flagInt(argc, argv, "racks", 3);
  const long uplinkGbps = bench::flagInt(argc, argv, "uplink-gbps", 10);
  const double duration = bench::flagDouble(argc, argv, "duration", 900.0);
  const double trainDuration =
      bench::flagDouble(argc, argv, "train-duration", 420.0);
  const auto seed =
      static_cast<std::uint64_t>(bench::flagInt(argc, argv, "seed", 42));
  const std::string which = bench::flagValue(argc, argv, "scenario", "all");
  const bool json = bench::flagPresent(argc, argv, "json");

  harness::ExperimentSpec base;
  base.slaves = static_cast<int>(slaves);
  base.duration = duration;
  base.trainDuration = trainDuration;
  base.seed = seed;
  base.topology.racks = static_cast<int>(racks);
  base.topology.uplinkBytesPerSec = static_cast<double>(uplinkGbps) * 1.25e8;

  std::vector<faults::ScenarioClass> classes;
  if (which == "all") {
    classes = faults::allScenarios();
  } else {
    classes.push_back(faults::scenarioFromName(which));
  }

  if (!json) {
    std::printf("Scenario matrix: %ld slaves in %ld racks, %ld Gbps "
                "uplinks, %.0f s runs\n\n",
                slaves, racks, uplinkGbps, duration);
  }

  const auto wallStart = std::chrono::steady_clock::now();
  const analysis::BlackBoxModel model = harness::trainModel(base);

  // Flat identity: with racks=1 the uplink plane must not exist, so
  // the alarms cannot depend on the uplink bandwidth value.
  harness::ExperimentSpec flat = base;
  flat.topology = topology::TopologySpec{};
  harness::ExperimentSpec flatTiny = flat;
  flatTiny.topology.uplinkBytesPerSec = 1.0;
  const harness::ExperimentResult flatA = harness::runExperiment(flat, model);
  const harness::ExperimentResult flatB =
      harness::runExperiment(flatTiny, model);
  const bool flatIdentical = identicalSeries(flatA.blackBox, flatB.blackBox) &&
                             identicalSeries(flatA.whiteBox, flatB.whiteBox);

  // Determinism: the first requested class, run twice.
  const harness::ExperimentSpec detSpec =
      harness::specForScenario(base, classes.front());
  const harness::ExperimentResult detA = harness::runExperiment(detSpec, model);
  const harness::ExperimentResult detB = harness::runExperiment(detSpec, model);
  const bool deterministic =
      harness::fingerprintEvents(detA.scenarioEvents) ==
          harness::fingerprintEvents(detB.scenarioEvents) &&
      identicalSeries(detA.blackBox, detB.blackBox) &&
      identicalSeries(detA.whiteBox, detB.whiteBox) &&
      detA.truth.culprits == detB.truth.culprits;

  harness::ScenarioMatrix matrix;
  for (faults::ScenarioClass cls : classes) {
    matrix.rows.push_back(harness::runScenarioClass(base, cls, model));
  }
  harness::aggregateMatrix(matrix);

  long tp = 0, fp = 0, tn = 0, fn = 0;
  for (const harness::ScenarioOutcome& row : matrix.rows) {
    tp += row.combined.eval.tp;
    fp += row.combined.eval.fp;
    tn += row.combined.eval.tn;
    fn += row.combined.eval.fn;
  }
  const bool rowsSum = tp == matrix.combined.eval.tp &&
                       fp == matrix.combined.eval.fp &&
                       tn == matrix.combined.eval.tn &&
                       fn == matrix.combined.eval.fn;

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();

  if (json) {
    std::printf(
        "{\n  \"bench\": \"scenarios\",\n"
        "  \"slaves\": %ld, \"racks\": %ld, \"uplink_gbps\": %ld,\n"
        "  \"duration\": %.0f, \"train_duration\": %.0f, \"seed\": %llu,\n"
        "  \"flat_identical\": %d,\n"
        "  \"deterministic\": %d,\n"
        "  \"rows_sum_to_aggregate\": %d,\n"
        "  \"scenarios\": {\n",
        slaves, racks, uplinkGbps, duration, trainDuration,
        static_cast<unsigned long long>(seed), flatIdentical ? 1 : 0,
        deterministic ? 1 : 0, rowsSum ? 1 : 0);
    for (std::size_t i = 0; i < matrix.rows.size(); ++i) {
      printRow(matrix.rows[i], i + 1 == matrix.rows.size());
    }
    std::printf(
        "  },\n"
        "  \"aggregate_combined_accuracy_pct\": %.1f,\n"
        "  \"aggregate_combined_fpr_pct\": %.1f,\n"
        "  \"total_wall_s\": %.1f\n}\n",
        matrix.combined.eval.balancedAccuracyPct(),
        matrix.combined.eval.falsePositiveRatePct(), wall);
  } else {
    std::printf("  flat identical: %s   deterministic: %s   rows sum: %s\n\n",
                flatIdentical ? "yes" : "NO", deterministic ? "yes" : "NO",
                rowsSum ? "yes" : "NO");
    std::printf("%s", harness::formatScenarioMatrix(matrix).c_str());
    std::printf("\n  total wall: %.1f s\n", wall);
  }

  if (!flatIdentical) {
    std::fprintf(stderr, "FAIL: flat (racks=1) runs depend on the uplink "
                         "spec\n");
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: scenario runs are not seed-deterministic\n");
    return 1;
  }
  if (!rowsSum) {
    std::fprintf(stderr, "FAIL: per-class rows do not sum to the "
                         "aggregate\n");
    return 1;
  }
  for (const harness::ScenarioOutcome& row : matrix.rows) {
    if (row.combined.latencySeconds < 0.0) {
      std::fprintf(stderr, "FAIL: %s not localized by the combined "
                           "approach\n",
                   row.name.c_str());
      return 1;
    }
  }
  return 0;
}
