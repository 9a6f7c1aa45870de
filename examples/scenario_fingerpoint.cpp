// Correlated-fault scenarios on a rack-aware simulated cluster
// (DESIGN.md §16).
//
// Trains the black-box model fault-free, then injects one correlated
// scenario class — or the whole matrix — on a racks x nodes-per-rack
// topology and prints per-class balanced accuracy, FP rate, and
// localization latency for the black-box, white-box, and combined
// approaches.
//
// Usage:
//   scenario_fingerpoint --slaves=12 --racks=3 --scenario=partition
//   scenario_fingerpoint --slaves=12 --racks=3 --scenario=all
//   scenario_fingerpoint --slaves=9 --racks=3 --nodes-per-rack=3
//                        --uplink-gbps=10 --scenario=gray --seed=7
//
// Scenario names: partition | cascade | noisy-neighbor | gray | all
// (canonical names RackPartition etc. are accepted too). Exits 0 only
// when every requested scenario was localized by the combined
// approach; CI runs one class per job against this gate.
#include <cstdio>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "examples/example_util.h"
#include "faults/scenarios.h"
#include "harness/scenario_matrix.h"
#include "modules/modules.h"

int main(int argc, char** argv) {
  using namespace asdf;
  using examples::flagDouble;
  using examples::flagInt;
  using examples::flagPresent;
  using examples::flagValue;
  using examples::parseBoundedInt;

  if (!examples::checkFlags(
          argc, argv,
          {"slaves", "racks", "nodes-per-rack", "uplink-gbps", "scenario",
           "duration", "train-duration", "seed", "inject-at", "verbose"},
          "scenario_fingerpoint [--slaves=N] [--racks=N] "
          "[--nodes-per-rack=N] [--uplink-gbps=N] "
          "[--scenario=partition|cascade|noisy-neighbor|gray|all] "
          "[--duration=T] [--train-duration=T] [--seed=N] "
          "[--inject-at=T] [--verbose]\n")) {
    return 2;
  }

  modules::registerBuiltinModules();
  if (flagPresent(argc, argv, "verbose")) setLogLevel(LogLevel::kInfo);

  // The topology flags gate hard on parse errors: a daemon silently
  // running flat when the operator asked for racks would void every
  // scenario result below.
  long racks = 3, nodesPerRack = 0, uplinkGbps = 10;
  if (!parseBoundedInt(argc, argv, "racks", 1, 1024, 3, racks) ||
      !parseBoundedInt(argc, argv, "nodes-per-rack", 0, 1024, 0,
                       nodesPerRack) ||
      !parseBoundedInt(argc, argv, "uplink-gbps", 1, 400, 10, uplinkGbps)) {
    return 2;
  }

  harness::ExperimentSpec spec;
  spec.slaves = static_cast<int>(flagInt(argc, argv, "slaves", 12));
  spec.duration = flagDouble(argc, argv, "duration", 900.0);
  spec.trainDuration = flagDouble(argc, argv, "train-duration", 420.0);
  spec.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  spec.topology.racks = static_cast<int>(racks);
  spec.topology.nodesPerRack = static_cast<int>(nodesPerRack);
  spec.topology.uplinkBytesPerSec = static_cast<double>(uplinkGbps) * 1.25e8;
  spec.scenario.startTime = flagDouble(argc, argv, "inject-at", 0.0);

  const std::string which = flagValue(argc, argv, "scenario", "all");
  std::vector<faults::ScenarioClass> classes;
  try {
    if (which == "all") {
      classes = faults::allScenarios();
    } else {
      classes.push_back(faults::scenarioFromName(which));
    }
    harness::validateSpec(
        harness::specForScenario(spec, classes.front()));
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "scenario_fingerpoint: %s\n", e.what());
    return 2;
  }

  std::printf("ASDF correlated-scenario fingerpointing\n");
  std::printf("  %d slaves in %d racks (%d/rack), %ld Gbps uplinks, "
              "seed %llu\n",
              spec.slaves, spec.topology.racks,
              topology::ClusterLayout(spec.slaves, spec.topology)
                  .nodesPerRack(),
              uplinkGbps,
              static_cast<unsigned long long>(spec.seed));

  int exitCode = 0;
  try {
    const analysis::BlackBoxModel model = harness::trainModel(spec);

    harness::ScenarioMatrix matrix;
    for (faults::ScenarioClass cls : classes) {
      matrix.rows.push_back(harness::runScenarioClass(spec, cls, model));
      const harness::ScenarioOutcome& row = matrix.rows.back();
      std::printf("  %s: %zu culprit(s), %zu events, latency %s\n",
                  row.name.c_str(), row.culprits.size(), row.eventCount,
                  row.combined.latencySeconds < 0
                      ? "n/a"
                      : strformat("%.0f s", row.combined.latencySeconds)
                            .c_str());
      if (row.combined.latencySeconds < 0) {
        std::printf("FAILED: %s not localized by the combined approach\n",
                    row.name.c_str());
        exitCode = 1;
      }
    }

    harness::aggregateMatrix(matrix);
    std::printf("\n%s", harness::formatScenarioMatrix(matrix).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_fingerpoint: %s\n", e.what());
    exitCode = 1;
  }
  return exitCode;
}
