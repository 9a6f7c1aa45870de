// End-to-end ASDF over real sockets: fingerpoint an injected fault on
// a cluster served by asdf_rpcd, with fpt-core pumped by wall time.
//
// Usage:
//   live_fingerpoint --self-host                       (in-process daemon)
//   live_fingerpoint --host=127.0.0.1 --port=4588      (external daemon)
//
// With an external daemon, start it with matching parameters first:
//   asdf_rpcd --port=4588 --slaves=8 --seed=42
//             --fault=CPUHog --fault-node=3 --fault-start=200
//
// Other flags: --fault=... --node=N --inject-at=T --slaves=N
//              --duration=T --seed=N --scale=X (virtual s per wall s)
//              --record=DIR (flight-record every collection round)
//              --verbose
//
// Exits 0 only when the combined analysis localized the fault (a
// latency was measured); nonzero otherwise — CI uses this as the live
// end-to-end gate.
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "examples/example_util.h"
#include "faults/faults.h"
#include "harness/experiment.h"
#include "modules/modules.h"
#include "net/rpcd_server.h"

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  using namespace asdf;
  using examples::flagDouble;
  using examples::flagInt;
  using examples::flagPresent;
  using examples::flagValue;

  if (!examples::checkFlags(
          argc, argv,
          {"self-host", "host", "port", "fault", "node", "inject-at",
           "slaves", "duration", "train-duration", "seed", "scale",
           "rpc-timeout", "record", "source", "verbose"},
          "live_fingerpoint [--self-host | --host=H --port=N] "
          "[--fault=NAME] [--node=N] [--inject-at=T] [--slaves=N] "
          "[--duration=T] [--train-duration=T] [--seed=N] [--scale=X] "
          "[--rpc-timeout=T] [--record=DIR] [--source=sim|proc] "
          "[--verbose]\n")) {
    return 2;
  }

  modules::registerBuiltinModules();
  if (flagPresent(argc, argv, "verbose")) {
    setLogLevel(LogLevel::kInfo);
  }

  harness::ExperimentSpec spec;
  spec.transport = harness::TransportMode::kLive;
  spec.slaves = static_cast<int>(flagInt(argc, argv, "slaves", 8));
  spec.duration = flagDouble(argc, argv, "duration", 600.0);
  spec.trainDuration = flagDouble(argc, argv, "train-duration", 300.0);
  spec.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  spec.fault.node = static_cast<NodeId>(flagInt(argc, argv, "node", 3));
  spec.fault.startTime = flagDouble(argc, argv, "inject-at", 200.0);
  spec.pipeline.quietPrint = !flagPresent(argc, argv, "verbose");
  spec.liveHost = flagValue(argc, argv, "host", "127.0.0.1");
  spec.livePort = examples::flagPort(argc, argv, "port", 4588);
  spec.realtimeScale = flagDouble(argc, argv, "scale", 20.0);
  // Live attempts ride real localhost sockets; the sim default of
  // 250 ms is tight when the daemon is advancing its hosted cluster,
  // so give each attempt breathing room.
  spec.rpcPolicy.timeoutSeconds =
      flagDouble(argc, argv, "rpc-timeout", 5.0);
  spec.archiveDir = flagValue(argc, argv, "record", "");
  try {
    spec.fault.type =
        faults::faultFromName(flagValue(argc, argv, "fault", "CPUHog"));
    harness::validateSpec(spec);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "live_fingerpoint: %s\n", e.what());
    return 1;
  }

  // Optionally host the daemon inside this process on an ephemeral
  // port — the zero-setup demo path, and exactly what CI's external
  // asdf_rpcd launch does, minus the second process.
  std::unique_ptr<net::RpcdServer> server;
  std::thread serverThread;
  if (flagPresent(argc, argv, "self-host")) {
    net::RpcdOptions dopts;
    dopts.port = 0;
    dopts.slaves = spec.slaves;
    dopts.seed = spec.seed;
    dopts.source = flagValue(argc, argv, "source", "sim");
    dopts.fault = spec.fault;
    server = std::make_unique<net::RpcdServer>(dopts);
    spec.livePort = server->port();
    serverThread = std::thread([&] { server->run(); });
    std::printf("self-hosting asdf_rpcd on 127.0.0.1:%u (source=%s)\n",
                static_cast<unsigned>(spec.livePort), dopts.source.c_str());
  }

  std::printf("ASDF live fingerpointing (transport=tcp)\n");
  std::printf("  daemon: %s:%u; %d slaves, %.0f s virtual run at %.0fx, "
              "fault %s on slave %d at %.0f s\n",
              spec.liveHost.c_str(), static_cast<unsigned>(spec.livePort),
              spec.slaves, spec.duration, spec.realtimeScale,
              faults::faultName(spec.fault.type), spec.fault.node,
              spec.fault.startTime);

  std::printf("training black-box model (fault-free %.0f s sim run)...\n",
              spec.trainDuration);
  const analysis::BlackBoxModel model = harness::trainModel(spec);

  std::printf("running live experiment (~%.0f s wall)...\n",
              spec.duration / spec.realtimeScale);
  int exitCode = 0;
  try {
    const harness::ExperimentResult result =
        harness::runExperiment(spec, model);
    std::printf("  jobs: %ld submitted, %ld completed; rpc rounds %ld "
                "(%ld retries, %ld failed)\n",
                result.jobsSubmitted, result.jobsCompleted, result.rpcRounds,
                result.rpcRetries, result.rpcFailedRounds);
    std::printf("  alarm windows: %zu black-box, %zu white-box\n",
                result.blackBox.size(), result.whiteBox.size());

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
      std::printf("  channel %-10s %ld calls (%ld failed), %.2f KB/s/node\n",
                  ch.name.c_str(), ch.calls, ch.failedCalls,
                  ch.perIterationKbPerSec);
    }

    const bool localized = summary.combined.latencySeconds >= 0;
    if (localized) {
      std::printf("fault localized over live transport (latency %.0f s)\n",
                  summary.combined.latencySeconds);
    } else {
      std::printf("FAILED: fault not localized over live transport\n");
      exitCode = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "live_fingerpoint: %s\n", e.what());
    exitCode = 1;
  }

  if (server != nullptr) {
    server->stop();
    serverThread.join();
  }
  return exitCode;
}
