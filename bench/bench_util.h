// Shared helpers for the table/figure regeneration binaries.
//
// Every bench binary runs standalone with defaults sized for a laptop
// (8 slaves, 20 simulated minutes) and accepts --nodes= / --duration= /
// --seed= flags to reproduce at the paper's scale (50 nodes).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>

#include "../examples/example_util.h"
#include "harness/experiment.h"
#include "modules/modules.h"

namespace asdf::bench {

// One flag parser for every binary: the strict one in
// examples/example_util.h.
using examples::flagDouble;
using examples::flagInt;
using examples::flagIntList;
using examples::flagPresent;
using examples::flagValue;

/// Exits 2, naming the argument, unless every argument is one of
/// `allowed`: a misspelled gate such as --min-speedupp must fail the
/// run, not switch the gate off.
inline void requireFlags(int argc, char** argv,
                         std::initializer_list<const char*> allowed) {
  std::string usage;
  for (const char* name : allowed) {
    usage += std::string(usage.empty() ? "" : " ") + "[--" + name + "]";
  }
  if (!examples::checkFlags(argc, argv, allowed, usage + "\n")) std::exit(2);
}

/// The common experiment shape used by the figure benches.
inline harness::ExperimentSpec benchSpec(int argc, char** argv) {
  requireFlags(argc, argv,
               {"nodes", "threads", "duration", "train-duration", "seed",
                "fault-node", "inject-at"});
  modules::registerBuiltinModules();
  harness::ExperimentSpec spec;
  spec.slaves = static_cast<int>(flagInt(argc, argv, "nodes", 8));
  spec.threads = static_cast<int>(flagInt(argc, argv, "threads", 1));
  spec.duration = flagDouble(argc, argv, "duration", 1200.0);
  spec.trainDuration = flagDouble(argc, argv, "train-duration", 400.0);
  spec.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  spec.fault.node = static_cast<NodeId>(
      flagInt(argc, argv, "fault-node", spec.slaves / 2));
  spec.fault.startTime = flagDouble(argc, argv, "inject-at", 400.0);
  return spec;
}

/// Runs the six Table 2 faults (one run each, shared trained model)
/// and hands each result to `consume`.
template <typename Consumer>
void sweepFaults(const harness::ExperimentSpec& base, Consumer&& consume) {
  std::printf("training black-box model (fault-free %.0f s run)...\n",
              base.trainDuration);
  const analysis::BlackBoxModel model = harness::trainModel(base);
  for (faults::FaultType fault : faults::allFaults()) {
    harness::ExperimentSpec spec = base;
    spec.fault.type = fault;
    std::printf("running %s...\n", faults::faultName(fault));
    std::fflush(stdout);
    consume(fault, harness::runExperiment(spec, model));
  }
}

inline void printRule() {
  std::printf("-------------------------------------------------------------"
              "---------\n");
}

}  // namespace asdf::bench
