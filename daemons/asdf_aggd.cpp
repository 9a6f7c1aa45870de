// asdf_aggd — the regional aggregation daemon (DESIGN.md §12).
//
// One aggregator owns a contiguous range of monitored nodes: it
// collects from their asdf_rpcd daemons behind the fault-tolerant
// RpcClient, runs the per-group reduce pipeline (agg_bb/agg_wb), and
// re-serves the resulting GroupSummary windows upward to the root over
// the same CRC-framed protocol.
//
//   --port=N            summary serving port (default 4600; 0 = ephemeral)
//   --leaves=H:P[,H:P]  leaf asdf_rpcd endpoints (required); with fewer
//                       endpoints than nodes, nodes wrap around the list
//   --first-node=N      first monitored node id of this region (default 1)
//   --group-size=N      nodes in this region (required)
//   --slaves=N          TOTAL cluster slave count (default 16)
//   --seed=N            experiment seed — must match the leaves (default 42)
//   --duration=T        virtual seconds to pump the pipeline (default 600)
//   --scale=X           virtual seconds per wall second (default 20)
//   --window=N --slide=N   analysis window geometry (defaults 60/5)
//   --threads=N         fpt-core executor width (default 1)
//   --train-duration=T --train-warmup=T --centroids=N   model training
//   --rpc-timeout=T     per-attempt leaf fetch timeout (default 5)
//   --archive-dir=DIR   flight-record this tier's collection rounds
//   --idle-timeout=T    reap connections idle for T seconds (0 = never)
//   --shards=N          summary-server event-loop shards (default 1;
//                       DESIGN.md §15)
//   --model-cache=FILE  load the trained model from FILE when present,
//                       else train and write it — a supervised restart
//                       (tools/asdf_supervise) skips retraining and is
//                       back publishing summaries in seconds
//   --verbose
//
// The daemon trains its own black-box model from the shared seed —
// training is deterministic, so every tier derives the identical model
// without shipping it (and a cached model file is byte-identical to a
// retrain).
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "../examples/example_util.h"
#include "analysis/bbmodel.h"
#include "common/logging.h"
#include "common/strings.h"
#include "harness/aggregator.h"
#include "modules/modules.h"

namespace {

asdf::harness::AggregatorNode* g_node = nullptr;

void handleSignal(int) {
  if (g_node != nullptr) g_node->stop();
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
          {"port", "leaves", "first-node", "group-size", "slaves", "seed",
           "duration", "scale", "window", "slide", "threads",
           "train-duration", "train-warmup", "centroids", "rpc-timeout",
           "archive-dir", "idle-timeout", "model-cache", "shards",
           "verbose"},
          "asdf_aggd --leaves=H:P[,H:P...] --group-size=N [--port=N] "
          "[--first-node=N] [--slaves=N] [--seed=N] [--duration=T] "
          "[--scale=X] [--window=N] [--slide=N] [--threads=N] "
          "[--train-duration=T] [--train-warmup=T] [--centroids=N] "
          "[--rpc-timeout=T] [--archive-dir=DIR] [--idle-timeout=T] "
          "[--model-cache=FILE] [--shards=N] [--verbose]\n")) {
    return 2;
  }

  // A peer dying mid-response must surface as EPIPE on the write path,
  // never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  modules::registerBuiltinModules();
  if (flagPresent(argc, argv, "verbose")) setLogLevel(LogLevel::kInfo);

  harness::AggregatorOptions opts;
  opts.base.slaves = static_cast<int>(flagInt(argc, argv, "slaves", 16));
  opts.base.duration = flagDouble(argc, argv, "duration", 600.0);
  opts.base.trainDuration = flagDouble(argc, argv, "train-duration", 300.0);
  opts.base.trainWarmup = flagDouble(argc, argv, "train-warmup", 90.0);
  opts.base.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  opts.base.centroids = static_cast<int>(flagInt(argc, argv, "centroids", 8));
  opts.base.threads = static_cast<int>(flagInt(argc, argv, "threads", 1));
  opts.base.realtimeScale = flagDouble(argc, argv, "scale", 20.0);
  opts.base.rpcPolicy.timeoutSeconds =
      flagDouble(argc, argv, "rpc-timeout", 5.0);
  opts.base.pipeline.windowSize =
      static_cast<int>(flagInt(argc, argv, "window", 60));
  opts.base.pipeline.windowSlide =
      static_cast<int>(flagInt(argc, argv, "slide", 5));
  opts.base.archiveDir = flagValue(argc, argv, "archive-dir", "");
  opts.firstNode = static_cast<int>(flagInt(argc, argv, "first-node", 1));
  opts.groupSize = static_cast<int>(flagInt(argc, argv, "group-size", 0));
  opts.port = examples::flagPort(argc, argv, "port", 4600);
  opts.idleTimeoutSeconds = flagDouble(argc, argv, "idle-timeout", 0.0);
  if (!examples::parseShards(argc, argv, opts.shards)) return 2;
  const std::string modelCache = flagValue(argc, argv, "model-cache", "");
  const std::string leaves = flagValue(argc, argv, "leaves", "");
  if (leaves.empty() || opts.groupSize < 1) {
    std::fprintf(stderr,
                 "asdf_aggd: --leaves and --group-size are required\n");
    return 2;
  }
  opts.leafEndpoints = split(leaves, ',');

  try {
    // A bad region is refused before the model is trained.
    harness::checkRegion(opts);
    analysis::BlackBoxModel model;
    bool cached = false;
    if (!modelCache.empty()) {
      std::ifstream in(modelCache);
      if (in) {
        std::ostringstream text;
        text << in.rdbuf();
        model = analysis::deserializeModel(text.str());
        cached = true;
        std::printf("asdf_aggd: loaded cached model from %s\n",
                    modelCache.c_str());
      }
    }
    if (!cached) {
      std::printf("asdf_aggd: training black-box model (fault-free %.0f s "
                  "sim run, %d slaves)...\n",
                  opts.base.trainDuration, opts.base.slaves);
      std::fflush(stdout);
      model = harness::trainModel(opts.base);
      if (!modelCache.empty()) {
        std::ofstream out(modelCache);
        out << analysis::serializeModel(model);
        if (out) {
          std::printf("asdf_aggd: cached model to %s\n", modelCache.c_str());
        }
      }
    }

    harness::AggregatorNode node(opts, model);
    g_node = &node;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    // Announced only once run() has checked the leaves.
    node.run([&] {
      std::printf("asdf_aggd: nodes %d..%d from %zu leaves, serving "
                  "summaries on 127.0.0.1:%u\n",
                  opts.firstNode, opts.firstNode + opts.groupSize - 1,
                  opts.leafEndpoints.size(),
                  static_cast<unsigned>(node.port()));
      std::fflush(stdout);
    });
    std::printf("asdf_aggd: published %zu black-box / %zu white-box "
                "summary windows\n",
                node.board().windowCount(rpc::SummaryChannel::kBlackBox),
                node.board().windowCount(rpc::SummaryChannel::kWhiteBox));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asdf_aggd: %s\n", e.what());
    return 1;
  }
  return 0;
}
