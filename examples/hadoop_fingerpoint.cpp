// Full ASDF-on-Hadoop deployment: train a black-box model on a
// fault-free GridMix run, then monitor a second run with one injected
// fault and report what each analysis fingerpointed.
//
// Usage:
//   hadoop_fingerpoint [--fault=CPUHog|DiskHog|PacketLoss|HADOOP-1036|
//                         HADOOP-1152|HADOOP-2080|none]
//                      [--node=3] [--slaves=16] [--duration=1800]
//                      [--train-duration=600] [--inject-at=600]
//                      [--seed=42] [--verbose]
#include <cstdio>

#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "examples/example_util.h"
#include "faults/faults.h"
#include "harness/experiment.h"
#include "modules/modules.h"

int main(int argc, char** argv) {
  using namespace asdf;
  using examples::flagDouble;
  using examples::flagInt;
  using examples::flagPresent;
  using examples::flagValue;

  if (!examples::checkFlags(
          argc, argv,
          {"fault", "node", "slaves", "duration", "train-duration",
           "inject-at", "seed", "verbose"},
          "hadoop_fingerpoint [--fault=NAME] [--node=N] [--slaves=N] "
          "[--duration=T] [--train-duration=T] [--inject-at=T] [--seed=N] "
          "[--verbose]\n")) {
    return 2;
  }
  modules::registerBuiltinModules();
  if (flagPresent(argc, argv, "verbose")) {
    setLogLevel(LogLevel::kInfo);
  }

  harness::ExperimentSpec spec;
  spec.slaves = static_cast<int>(flagInt(argc, argv, "slaves", 16));
  spec.duration = flagDouble(argc, argv, "duration", 1800.0);
  spec.trainDuration = flagDouble(argc, argv, "train-duration", 600.0);
  spec.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  spec.fault.node = static_cast<NodeId>(flagInt(argc, argv, "node", 3));
  spec.fault.startTime = flagDouble(argc, argv, "inject-at", 600.0);
  spec.pipeline.quietPrint = !flagPresent(argc, argv, "verbose");
  try {
    spec.fault.type =
        faults::faultFromName(flagValue(argc, argv, "fault", "CPUHog"));
    harness::validateSpec(spec);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "hadoop_fingerpoint: %s\n", e.what());
    return 1;
  }

  std::printf("ASDF fingerpointing demo\n");
  std::printf("  cluster: %d slaves, %.0f s run, fault %s on slave %d at %.0f s\n",
              spec.slaves, spec.duration, faults::faultName(spec.fault.type),
              spec.fault.node, spec.fault.startTime);

  std::printf("training black-box model (fault-free %.0f s run)...\n",
              spec.trainDuration);
  const analysis::BlackBoxModel model = harness::trainModel(spec);
  std::printf("  %zu centroids over %zu metrics\n", model.states(),
              model.dims());

  std::printf("running monitored experiment...\n");
  const harness::ExperimentResult result =
      harness::runExperiment(spec, model);
  std::printf("  jobs: %ld submitted, %ld completed; tasks: %ld done, %ld "
              "failed; %ld speculative\n",
              result.jobsSubmitted, result.jobsCompleted,
              result.tasksCompleted, result.tasksFailed,
              result.speculativeLaunches);
  std::printf("  alarm windows: %zu black-box, %zu white-box\n",
              result.blackBox.size(), result.whiteBox.size());

  const harness::ExperimentSummary summary = harness::summarize(result);
  auto show = [](const char* name, const harness::ApproachSummary& s) {
    std::printf("  %-10s balanced accuracy %5.1f%%  (TPR %5.1f%%, TNR %5.1f%%)"
                "  latency %s\n",
                name, s.eval.balancedAccuracyPct(),
                100.0 * s.eval.truePositiveRate(),
                100.0 * s.eval.trueNegativeRate(),
                s.latencySeconds < 0
                    ? "n/a"
                    : strformat("%.0f s", s.latencySeconds).c_str());
  };
  std::printf("results:\n");
  show("black-box", summary.blackBox);
  show("white-box", summary.whiteBox);
  show("combined", summary.combined);

  std::printf("monitoring cost: sadc_rpcd %.4f%% CPU, hadoop_log_rpcd "
              "%.4f%% CPU, strace_rpcd %.4f%% CPU, fpt-core %.4f%% CPU\n",
              result.sadcRpcdCpuPct, result.hadoopLogRpcdCpuPct,
              result.straceRpcdCpuPct, result.fptCoreCpuPct);
  return 0;
}
