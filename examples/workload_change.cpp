// Workload-change robustness demo (Section 2's false-positive goal).
//
// "The issue of false positives due to workload changes arises because
// workload changes can often be mistaken for anomalous behavior."
// ASDF's peer-comparison sidesteps this: a workload change hits every
// slave at once, so no node departs from the median. This demo runs a
// fault-free trace whose GridMix job mix flips mid-run (sort-heavy ->
// sample/combiner-heavy) and reports the false-positive rate before
// and after the change.
#include <cstdio>

#include "examples/example_util.h"
#include "harness/experiment.h"
#include "modules/modules.h"

int main(int argc, char** argv) {
  using namespace asdf;
  if (!examples::checkFlags(argc, argv, {"slaves", "duration", "seed"},
                            "workload_change [--slaves=N] [--duration=T] "
                            "[--seed=N]\n")) {
    return 2;
  }
  modules::registerBuiltinModules();

  harness::ExperimentSpec spec;
  spec.slaves = static_cast<int>(examples::flagInt(argc, argv, "slaves", 8));
  spec.duration = examples::flagDouble(argc, argv, "duration", 1400.0);
  spec.trainDuration = 400.0;
  spec.seed = static_cast<std::uint64_t>(
      examples::flagInt(argc, argv, "seed", 13));
  spec.fault.type = faults::FaultType::kNone;
  spec.mixChangeTime = spec.duration / 2.0;  // flip the mix mid-run
  // Small clusters have noisier medians than the paper's 50 nodes;
  // run at the conservative end of the Figure 6 threshold curves.
  spec.pipeline.bbThreshold = 70.0;
  spec.pipeline.wbK = 4.0;

  std::printf("fault-free run with a workload change at t=%.0f s\n",
              spec.mixChangeTime);
  const analysis::BlackBoxModel model = harness::trainModel(spec);
  const harness::ExperimentResult result =
      harness::runExperiment(spec, model);

  auto fprInWindow = [](const analysis::AlarmSeries& series, double from,
                        double to) {
    analysis::AlarmSeries slice;
    for (const auto& r : series) {
      if (r.time >= from && r.time < to) slice.push_back(r);
    }
    return analysis::flaggedFractionPct(slice);
  };

  const double half = spec.mixChangeTime;
  std::printf("\n%-12s %18s %18s\n", "analysis", "FPR before (%)",
              "FPR after (%)");
  std::printf("%-12s %18.2f %18.2f\n", "black-box",
              fprInWindow(result.blackBox, 100.0, half),
              fprInWindow(result.blackBox, half, spec.duration));
  std::printf("%-12s %18.2f %18.2f\n", "white-box",
              fprInWindow(result.whiteBox, 100.0, half),
              fprInWindow(result.whiteBox, half, spec.duration));

  const double bbAfter = fprInWindow(result.blackBox, half, spec.duration);
  const double wbAfter = fprInWindow(result.whiteBox, half, spec.duration);
  std::printf("\npeer comparison stays quiet through the change: %s\n",
              bbAfter < 10.0 && wbAfter < 10.0 ? "YES" : "NO");
  return bbAfter < 10.0 && wbAfter < 10.0 ? 0 : 1;
}
