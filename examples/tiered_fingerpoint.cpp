// The root of a live tiered ASDF deployment: merges per-region
// summaries served by asdf_aggd daemons into global fingerpointing
// verdicts (DESIGN.md §12).
//
// Topology (start in this order):
//   asdf_rpcd  x L   — leaf daemons hosting the monitored cluster
//   asdf_aggd  x G   — one per region, collecting from the leaves
//   tiered_fingerpoint --agg=H:P,H:P,...   — this binary
//
// Usage:
//   tiered_fingerpoint --agg=127.0.0.1:4600,127.0.0.1:4601
//                      --slaves=50 --groups=25,25 --seed=42
//                      --fault=CPUHog --node=7 --inject-at=200
//
// --groups gives the per-region node counts in endpoint order (default:
// an even split across the endpoints). The fault flags describe what
// the leaves were started with — the root only needs them for ground
// truth. Exits 0 only when the combined analysis localized the fault;
// CI uses this as the tiered end-to-end gate, including with one
// aggregator killed mid-run (quorum-gated degraded analysis).
// --require-rejoin additionally demands a full unmonitorable→healthy
// round trip in the monitoring events: some region must have been
// marked unmonitorable AND re-admitted (the chaos-e2e crash-rejoin
// gate, driven by tools/asdf_supervise restarting an aggregator).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "examples/example_util.h"
#include "faults/faults.h"
#include "harness/aggregator.h"
#include "modules/modules.h"

int main(int argc, char** argv) {
  using namespace asdf;
  using examples::flagDouble;
  using examples::flagInt;
  using examples::flagPresent;
  using examples::flagValue;

  if (!examples::checkFlags(
          argc, argv,
          {"agg", "groups", "slaves", "seed", "duration", "scale",
           "fault", "node", "inject-at", "quorum", "window", "slide",
           "rpc-timeout", "require-rejoin", "verbose"},
          "tiered_fingerpoint --agg=H:P[,H:P...] [--groups=N,N,...] "
          "[--slaves=N] [--seed=N] [--duration=T] [--scale=X] "
          "[--fault=NAME] [--node=N] [--inject-at=T] [--quorum=N] "
          "[--window=N] [--slide=N] [--rpc-timeout=T] "
          "[--require-rejoin] [--verbose]\n")) {
    return 2;
  }

  std::signal(SIGPIPE, SIG_IGN);

  modules::registerBuiltinModules();
  if (flagPresent(argc, argv, "verbose")) setLogLevel(LogLevel::kInfo);

  harness::ExperimentSpec spec;
  spec.transport = harness::TransportMode::kLive;
  spec.tiered = true;
  spec.slaves = static_cast<int>(flagInt(argc, argv, "slaves", 16));
  spec.duration = flagDouble(argc, argv, "duration", 600.0);
  spec.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  spec.realtimeScale = flagDouble(argc, argv, "scale", 20.0);
  spec.fault.type =
      faults::faultFromName(flagValue(argc, argv, "fault", "CPUHog"));
  spec.fault.node = static_cast<NodeId>(flagInt(argc, argv, "node", 3));
  spec.fault.startTime = flagDouble(argc, argv, "inject-at", 200.0);
  spec.pipeline.quorum = static_cast<int>(flagInt(argc, argv, "quorum", 0));
  spec.pipeline.windowSize =
      static_cast<int>(flagInt(argc, argv, "window", 60));
  spec.pipeline.windowSlide =
      static_cast<int>(flagInt(argc, argv, "slide", 5));
  spec.rpcPolicy.timeoutSeconds = flagDouble(argc, argv, "rpc-timeout", 5.0);

  const std::string agg = flagValue(argc, argv, "agg", "");
  if (agg.empty()) {
    std::fprintf(stderr, "tiered_fingerpoint: --agg is required\n");
    return 2;
  }
  spec.aggEndpoints = split(agg, ',');
  for (const long g : examples::flagIntList(
           argc, argv, "groups", 1, std::numeric_limits<int>::max(), {})) {
    spec.tierGroups.push_back(static_cast<int>(g));
  }
  if (spec.tierGroups.empty()) {
    spec.aggregators = static_cast<int>(spec.aggEndpoints.size());
  }

  std::printf("ASDF tiered fingerpointing (root over %zu aggregators)\n",
              spec.aggEndpoints.size());
  std::printf("  %d slaves, %.0f s virtual run at %.0fx, fault %s on "
              "slave %d at %.0f s\n",
              spec.slaves, spec.duration, spec.realtimeScale,
              faults::faultName(spec.fault.type), spec.fault.node,
              spec.fault.startTime);

  int exitCode = 0;
  try {
    const harness::ExperimentResult result =
        harness::runTieredLiveExperiment(spec);
    std::printf("  alarm windows: %zu black-box, %zu white-box; %zu "
                "monitoring events\n",
                result.blackBox.size(), result.whiteBox.size(),
                result.monitoringEvents.size());

    const harness::ExperimentSummary summary = harness::summarize(result);
    auto show = [](const char* name, const harness::ApproachSummary& s) {
      std::printf("  %-10s balanced accuracy %5.1f%%  latency %s\n", name,
                  s.eval.balancedAccuracyPct(),
                  s.latencySeconds < 0
                      ? "n/a"
                      : strformat("%.0f s", s.latencySeconds).c_str());
    };
    std::printf("results:\n");
    show("black-box", summary.blackBox);
    show("white-box", summary.whiteBox);
    show("combined", summary.combined);

    for (const harness::RpcChannelReport& ch : result.rpcChannels) {
      std::printf("  tier-%d channel %-14s %ld calls (%ld failed), "
                  "%.3f KB/s/node\n",
                  ch.tier, ch.name.c_str(), ch.calls, ch.failedCalls,
                  ch.perIterationKbPerSec);
    }

    const bool localized = summary.combined.latencySeconds >= 0;
    if (localized) {
      std::printf("fault localized across the aggregation tier "
                  "(latency %.0f s)\n",
                  summary.combined.latencySeconds);
    } else {
      std::printf("FAILED: fault not localized across the tier\n");
      exitCode = 1;
    }

    if (flagPresent(argc, argv, "require-rejoin")) {
      // A rejoin shows up as a shrink of the unmonitorable set after a
      // grow: some event lists node(s) unmonitorable, and a later event
      // on the same channel no longer lists one of them.
      bool sawUnmonitorable = false;
      bool sawRejoin = false;
      std::vector<std::string> down;
      for (const core::MonitoringEvent& ev : result.monitoringEvents) {
        if (ev.channel != "analysis_bb") continue;
        if (!ev.unmonitorable.empty()) sawUnmonitorable = true;
        for (const std::string& node : down) {
          if (std::find(ev.unmonitorable.begin(), ev.unmonitorable.end(),
                        node) == ev.unmonitorable.end()) {
            sawRejoin = true;
          }
        }
        down = ev.unmonitorable;
      }
      if (sawUnmonitorable && sawRejoin) {
        std::printf("rejoin observed: a region went unmonitorable and "
                    "was re-admitted\n");
      } else {
        std::printf("FAILED: --require-rejoin, but no "
                    "unmonitorable-then-healthy transition in the "
                    "monitoring events\n");
        exitCode = 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tiered_fingerpoint: %s\n", e.what());
    exitCode = 1;
  }
  return exitCode;
}
