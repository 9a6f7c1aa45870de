// Ablation: decision rule of the black-box fingerpointer.
//
// Compares the paper's fixed L1 threshold (trained on fault-free data,
// Figure 6a) against the self-calibrating MAD rule
// (analysis::madCompare) on the same recorded windows: detection
// quality on a CPUHog run and false positives on a fault-free run. The
// fixed threshold wins when a training trace representative of
// production exists; MAD needs no training pass but pays with a higher
// noise floor on small clusters.
#include "analysis/mad.h"
#include "common/strings.h"
#include "bench_util.h"

using namespace asdf;

namespace {

// Re-scores a recorded black-box series under the MAD rule, from the
// raw L1 scores the analysis recorded per window.
analysis::AlarmSeries rescoreWithMad(const analysis::AlarmSeries& series,
                                     double k) {
  analysis::AlarmSeries out = series;
  for (auto& record : out) {
    const analysis::PeerComparisonResult result =
        analysis::madCompare(record.scores, k);
    record.flags = result.flags;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentSpec base = bench::benchSpec(argc, argv);
  std::printf("Ablation: fixed-threshold vs MAD decision rule "
              "(%d slaves, CPUHog + fault-free)\n\n",
              base.slaves);
  const analysis::BlackBoxModel model = harness::trainModel(base);

  harness::ExperimentSpec faulty = base;
  faulty.fault.type = faults::FaultType::kCpuHog;
  const harness::ExperimentResult withFault =
      harness::runExperiment(faulty, model);
  harness::ExperimentSpec clean = base;
  clean.fault.type = faults::FaultType::kNone;
  const harness::ExperimentResult noFault =
      harness::runExperiment(clean, model);

  bench::printRule();
  std::printf("%-26s %14s %10s %12s\n", "decision rule", "BB accuracy %",
              "FPR %", "latency s");
  bench::printRule();

  // The paper's rule at its operating point.
  {
    const auto summary = harness::summarize(withFault);
    std::printf("%-26s %14.1f %10.2f %12.0f\n", "fixed threshold = 60",
                summary.blackBox.eval.balancedAccuracyPct(),
                analysis::flaggedFractionPct(noFault.blackBox),
                summary.blackBox.latencySeconds);
  }
  // MAD at several k, replayed over the same recorded windows.
  for (double k : {4.0, 6.0, 10.0}) {
    const analysis::AlarmSeries faultMad =
        rescoreWithMad(withFault.blackBox, k);
    const analysis::AlarmSeries cleanMad =
        rescoreWithMad(noFault.blackBox, k);
    const analysis::EvalResult eval =
        analysis::evaluate(faultMad, withFault.truth);
    std::printf("%-26s %14.1f %10.2f %12.0f\n",
                strformat("MAD rule, k = %.0f", k).c_str(),
                eval.balancedAccuracyPct(),
                analysis::flaggedFractionPct(cleanMad),
                analysis::fingerpointingLatency(faultMad, withFault.truth));
  }
  bench::printRule();
  std::printf("expected: comparable detection; MAD trades the training "
              "pass for a higher small-cluster noise floor\n");
  return 0;
}
