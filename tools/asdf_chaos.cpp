// asdf_chaos — standalone deterministic chaos proxy (DESIGN.md §13).
//
// Forwards 127.0.0.1:<listen> to an upstream daemon while applying the
// seeded toxic schedule of net::ChaosProxy, for driving real daemons
// through pathological networks in CI:
//
//   asdf_chaos --listen=P --upstream=H:P [--seed=N]
//              [--latency=T] [--jitter=T] [--rate=BPS] [--slice=N]
//              [--coalesce=N] [--corrupt-per-kb=X] [--reset-after=N]
//              [--partition=A:B[,A:B...]] [--duration=T]
//              [--print-schedule=CONNS:BYTES] [--verbose]
//
// The toxics apply in both directions. Each --partition window A:B
// (seconds since start) becomes a blackhole phase: nothing moves and
// new dials stall until B. On exit the realized chaos event log is
// printed — byte offsets and connection ordinals only, no wall-clock
// fields — so two runs with the same seed against the same workload
// print the same log. --print-schedule prints the pure-function
// schedule fingerprint (phase timeline + every corruption offset for
// the first CONNS connections below BYTES) without proxying anything.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "../examples/example_util.h"
#include "common/strings.h"
#include "net/chaos_proxy.h"
#include "net/fanout_collector.h"

namespace {

asdf::net::EventLoop* g_loop = nullptr;

void handleSignal(int) {
  if (g_loop != nullptr) g_loop->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asdf;
  using examples::flagDouble;
  using examples::flagInt;
  using examples::flagPresent;
  using examples::flagValue;

  if (!examples::checkFlags(
          argc, argv,
          {"listen", "upstream", "seed", "latency", "jitter", "rate",
           "slice", "coalesce", "corrupt-per-kb", "reset-after",
           "partition", "duration", "print-schedule", "verbose"},
          "asdf_chaos --listen=P --upstream=H:P [--seed=N] [--latency=T] "
          "[--jitter=T] [--rate=BPS] [--slice=N] [--coalesce=N] "
          "[--corrupt-per-kb=X] [--reset-after=N] [--partition=A:B,...] "
          "[--duration=T] [--print-schedule=CONNS:BYTES] [--verbose]\n")) {
    return 2;
  }

  std::signal(SIGPIPE, SIG_IGN);

  net::ChaosOptions opts;
  opts.listenPort = examples::flagPort(argc, argv, "listen", 0);
  opts.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 1));
  const std::string upstream = flagValue(argc, argv, "upstream", "");
  if (upstream.empty()) {
    std::fprintf(stderr, "asdf_chaos: --upstream is required\n");
    return 2;
  }
  try {
    net::parseEndpoint(upstream, opts.upstreamHost, opts.upstreamPort);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asdf_chaos: %s\n", e.what());
    return 2;
  }

  net::ChaosToxics toxics;
  toxics.latencySeconds = flagDouble(argc, argv, "latency", 0.0);
  toxics.jitterSeconds = flagDouble(argc, argv, "jitter", 0.0);
  toxics.rateBytesPerSec = flagDouble(argc, argv, "rate", 0.0);
  toxics.sliceBytes =
      static_cast<std::size_t>(flagInt(argc, argv, "slice", 0));
  toxics.coalesceBytes =
      static_cast<std::size_t>(flagInt(argc, argv, "coalesce", 0));
  toxics.corruptPerKb = flagDouble(argc, argv, "corrupt-per-kb", 0.0);
  toxics.resetAfterBytes =
      static_cast<std::uint64_t>(flagInt(argc, argv, "reset-after", 0));

  net::ChaosPhase base;
  base.up = toxics;
  base.down = toxics;
  opts.phases.push_back(base);

  // Each partition window becomes blackhole-on / blackhole-off phases
  // spliced into the timeline (windows are given in order).
  const std::string partitions = flagValue(argc, argv, "partition", "");
  if (!partitions.empty()) {
    for (const std::string& window : split(partitions, ',')) {
      const std::size_t colon = window.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "asdf_chaos: bad --partition window '%s'\n",
                     window.c_str());
        return 2;
      }
      const double from = std::atof(window.substr(0, colon).c_str());
      const double to = std::atof(window.substr(colon + 1).c_str());
      if (to <= from || from < opts.phases.back().startSeconds) {
        std::fprintf(stderr, "asdf_chaos: bad --partition window '%s'\n",
                     window.c_str());
        return 2;
      }
      net::ChaosPhase dark = base;
      dark.startSeconds = from;
      dark.blackhole = true;
      net::ChaosPhase light = base;
      light.startSeconds = to;
      opts.phases.push_back(dark);
      opts.phases.push_back(light);
    }
  }

  const std::string printSchedule =
      flagValue(argc, argv, "print-schedule", "");
  const double duration = flagDouble(argc, argv, "duration", 0.0);

  try {
    net::EventLoop loop;
    net::ChaosProxy proxy(loop, opts);

    if (!printSchedule.empty()) {
      std::uint64_t conns = 2, horizon = 4096;
      const std::size_t colon = printSchedule.find(':');
      if (colon != std::string::npos) {
        conns = std::strtoull(printSchedule.c_str(), nullptr, 10);
        horizon =
            std::strtoull(printSchedule.c_str() + colon + 1, nullptr, 10);
      }
      std::fputs(proxy.describeSchedule(conns, horizon).c_str(), stdout);
      return 0;
    }

    g_loop = &loop;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    if (duration > 0.0) {
      loop.addTimer(duration, [&loop] { loop.stop(); });
    }
    std::printf("asdf_chaos: 127.0.0.1:%u -> %s (seed %llu, %zu phases)\n",
                static_cast<unsigned>(proxy.port()), upstream.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.phases.size());
    std::fflush(stdout);
    loop.run();

    std::printf("asdf_chaos: %ld connections, %llu up / %llu down bytes, "
                "%ld corrupted, %ld resets\n",
                proxy.accepted(),
                static_cast<unsigned long long>(proxy.relayedBytes(0)),
                static_cast<unsigned long long>(proxy.relayedBytes(1)),
                proxy.corruptedBytes(), proxy.resets());
    std::printf("chaos event log:\n");
    for (const net::ChaosEvent& ev : proxy.events()) {
      std::printf("  %s\n", ev.describe().c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asdf_chaos: %s\n", e.what());
    return 1;
  }
  return 0;
}
