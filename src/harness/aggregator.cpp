#include "harness/aggregator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <memory>
#include <thread>

#include "analysis/partials.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "modules/merge.h"
#include "net/agg_client.h"

namespace asdf::harness {

void checkRegion(const AggregatorOptions& opts) {
  const int lastNode = opts.firstNode + opts.groupSize - 1;
  if (opts.firstNode < 1 || lastNode > opts.base.slaves) {
    throw ConfigError(
        strformat("aggregator: region %d..%d runs past the cluster's "
                  "nodes 1..%d",
                  opts.firstNode, lastNode, opts.base.slaves));
  }
}

namespace {

/// The region's pipeline; throws ConfigError for a region that is
/// empty or runs past the cluster, before any leaf is dialed.
std::string aggregatorConfigFor(const AggregatorOptions& opts) {
  checkRegion(opts);
  PipelineParams pipeline = opts.base.pipeline;
  pipeline.slaves = opts.base.slaves;
  return buildAggregatorConfig(pipeline, opts.firstNode, opts.groupSize);
}

}  // namespace

AggregatorNode::AggregatorNode(const AggregatorOptions& opts,
                               const analysis::BlackBoxModel& model)
    : opts_(opts),
      model_(model),
      config_(aggregatorConfigFor(opts)),
      collector_(opts.leafEndpoints, opts.firstNode,
                 opts.base.rpcPolicy.timeoutSeconds,
                 opts.base.seed * 2654435761ULL + 131),
      driver_(engine_, opts.base.realtimeScale),
      server_({.port = opts.port,
               .groupSize = opts.groupSize,
               .seed = opts.base.seed,
               .board = &board_,
               .idleTimeoutSeconds = opts.idleTimeoutSeconds,
               .shards = opts.shards}) {}

void AggregatorNode::run(const std::function<void()>& onServing) {
  // An aggregator is one region of a tiered deployment: its agg modules
  // charge the summary traffic to tier-2 channels.
  ExperimentSpec spec = opts_.base;
  spec.tiered = true;
  Plane plane;
  plane.collector = &collector_;
  plane.realBackoff = true;
  plane.recordAs = "agg";
  plane.config = config_;
  plane.board = &board_;
  // The pipeline is pumped on its own thread while this one serves the
  // board; serving outlives the pipeline until stop() or kShutdown.
  // A module error on the pump thread stops serving and is rethrown
  // here, on the caller's thread.
  plane.drive = [this, &spec, &onServing] {
    if (onServing) onServing();
    std::exception_ptr pumpError;
    std::thread pump([this, &spec, &pumpError] {
      try {
        driver_.run(spec.duration / spec.realtimeScale);
      } catch (...) {
        pumpError = std::current_exception();
        server_.stop();
      }
    });
    try {
      server_.run();
    } catch (...) {
      driver_.stop();
      pump.join();
      throw;
    }
    driver_.stop();
    pump.join();
    if (pumpError) std::rethrow_exception(pumpError);
  };
  runControlNode(spec, model_, engine_, plane);
}

void AggregatorNode::stop() {
  driver_.stop();
  server_.stop();
}

namespace {

/// Root-side state for one aggregator region. Down is transient
/// (DESIGN.md §13): kUp --3 failed polls--> kDown --any successful
/// fetch--> kRejoining --fresh window on every channel--> kUp. Down
/// and rejoining regions merge as synthetic all-unmonitorable and
/// never gate the other regions' rounds; an up region with an empty
/// queue is merely awaited.
struct RootGroup {
  enum class State { kUp, kDown, kRejoining };

  std::unique_ptr<net::AggClient> client;
  int size = 0;
  /// Fetch watermark and undelivered windows, per summary channel.
  double since[rpc::kSummaryChannelCount] = {0.0, 0.0};
  std::deque<analysis::GroupSummary> queue[rpc::kSummaryChannelCount];
  bool connected[rpc::kSummaryChannelCount] = {false, false};
  int failStreak = 0;
  State state = State::kUp;
  /// Per-channel: a window has been queued since the region last went
  /// down (the cursor moved past the restarted daemon's backlog).
  bool fresh[rpc::kSummaryChannelCount] = {false, false};

  /// Whether this region's next window must exist before a round on
  /// channel `c` may merge.
  bool gates(int c) const {
    return state == State::kUp || (state == State::kRejoining && fresh[c]);
  }
};

}  // namespace

ExperimentResult runTieredLiveExperiment(const ExperimentSpec& spec) {
  const std::vector<int> groups = tierGroupsFor(spec);
  int totalNodes = 0;
  for (const int g : groups) totalNodes += g;
  if (totalNodes != spec.slaves) {
    throw ConfigError(
        strformat("tiered live: tier groups cover %d slaves, expected %d",
                  totalNodes, spec.slaves));
  }
  if (spec.aggEndpoints.size() != groups.size()) {
    throw ConfigError(strformat(
        "tiered live: %zu aggregator endpoints for %zu groups "
        "(need exactly one per group, in topology order)",
        spec.aggEndpoints.size(), groups.size()));
  }
  faults::validateFault(spec.fault, spec.slaves);

  // Per-node labels matching the generated configuration's origins
  // (sadc/hadoop_log emit "slave<node>") and merge instance ids, so
  // MonitoringEvents read exactly as a sim run's would.
  std::vector<std::string> labels(static_cast<std::size_t>(totalNodes));
  for (int i = 0; i < totalNodes; ++i) {
    labels[static_cast<std::size_t>(i)] = strformat("slave%d", i + 1);
  }
  const std::vector<std::size_t> sizes(groups.begin(), groups.end());
  modules::RootMerge merges[rpc::kSummaryChannelCount] = {
      modules::RootMerge("analysis_bb", modules::PeerAnalysis::kBlackBox,
                         spec.pipeline.bbThreshold, labels, sizes,
                         spec.pipeline.quorum),
      modules::RootMerge("analysis_wb", modules::PeerAnalysis::kWhiteBox,
                         spec.pipeline.wbK, labels, sizes,
                         spec.pipeline.quorum)};

  std::vector<RootGroup> regions(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::string host;
    std::uint16_t port = 0;
    net::parseEndpoint(spec.aggEndpoints[g], host, port);
    net::AggClient::Options copts;
    copts.host = host;
    copts.port = port;
    copts.timeoutSeconds = spec.rpcPolicy.timeoutSeconds;
    copts.backoffSeed = spec.seed * 2654435761ULL + 1000003ULL * (g + 1);
    regions[g].client = std::make_unique<net::AggClient>(copts);
    regions[g].size = groups[g];
  }

  // Tier-2 Table 4 accounting: same channel names and per-window byte
  // charges as the sim agg modules, so both topologies report the same
  // summary bandwidth.
  rpc::TransportRegistry transports;
  rpc::RpcChannelStats* chan[rpc::kSummaryChannelCount];
  for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
    chan[c] = &transports.channel(rpc::kSummaryChannelNames[c]);
    chan[c]->setTier(2);
  }

  ExperimentResult result;
  std::vector<analysis::GroupSummary> synth(groups.size());
  std::vector<const analysis::GroupSummary*> ptrs(groups.size());
  // A down region's members: all unmonitorable, so no row is ever read.
  const int largest = *std::max_element(groups.begin(), groups.end());
  const std::vector<double> downHealth(largest, 2.0);
  const std::vector<const double*> noRows(largest, nullptr);
  analysis::ReduceScratch reduceScratch;

  // Merges every window that is ready on channel `c`. Windows pair by
  // ORDINAL across regions, not by timestamp: each region's log-sync
  // barrier drops the seconds its own group skipped, so regional
  // white-box grids drift a second or two around hiccups the flat
  // global barrier would have applied to everyone (DESIGN.md §12). The
  // k-th window from every region still covers the same slide of the
  // same workload; the global window time is the slowest region's —
  // when the flat barrier would have released it. A round is ready
  // when every gating region (see RootGroup::gates) has its next
  // window queued; a down or still-rejoining region with a drained
  // backlog joins as the reduceGroup() of an all-unmonitorable group —
  // by construction the summary a live aggregator publishes when all
  // its leaves are down — so quorum gating and degraded analysis run
  // exactly as in a sim run, and a down region never stalls the
  // others' rounds.
  auto processChannel = [&](int c) {
    for (;;) {
      double t = 0.0;
      std::size_t dims = 0;
      bool any = false;
      bool allLiveReady = true;
      for (const RootGroup& region : regions) {
        if (!region.queue[c].empty()) {
          any = true;
          t = std::max(t, region.queue[c].front().time);
          dims = region.queue[c].front().dims;
        } else if (region.gates(c)) {
          allLiveReady = false;
        }
      }
      if (!any || !allLiveReady) return;

      const bool whiteBox =
          c == static_cast<int>(rpc::SummaryChannel::kWhiteBox);
      for (std::size_t g = 0; g < regions.size(); ++g) {
        if (!regions[g].queue[c].empty()) {
          ptrs[g] = &regions[g].queue[c].front();
          continue;
        }
        analysis::reduceGroup(t, noRows.data(),
                              whiteBox ? noRows.data() : nullptr,
                              downHealth.data(),
                              static_cast<std::size_t>(regions[g].size), dims,
                              synth[g], reduceScratch);
        ptrs[g] = &synth[g];
      }

      // A window whose shapes disagree is dropped whole: its summaries
      // are network input, and merging them would read past buffers.
      analysis::AlarmRecord record;
      record.time = t;
      if (merges[c].merge(ptrs.data(), t, record.flags, record.scores,
                          record.health)) {
        if (const core::MonitoringEvent* event = merges[c].transition()) {
          result.monitoringEvents.push_back(*event);
        }
        (c == static_cast<int>(rpc::SummaryChannel::kBlackBox)
             ? result.blackBox
             : result.whiteBox)
            .push_back(std::move(record));
      } else {
        logWarn("tiered live: dropping malformed summary window");
      }

      for (RootGroup& region : regions) {
        if (!region.queue[c].empty()) region.queue[c].pop_front();
      }
    }
  };

  const double wallDuration = spec.duration / spec.realtimeScale;
  const double pollSeconds =
      std::max(0.05, spec.pipeline.windowSlide / spec.realtimeScale / 4.0);
  const double graceSeconds = std::max(2.0, 20.0 * pollSeconds);
  const auto start = std::chrono::steady_clock::now();
  int quietPolls = 0;
  std::vector<rpc::SummaryWindow> windows;
  for (;;) {
    bool anyNew = false;
    for (RootGroup& region : regions) {
      bool anySuccess = false;
      for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
        std::size_t responseBytes = 0;
        if (region.client->fetchSummary(static_cast<rpc::SummaryChannel>(c),
                                        region.since[c], windows,
                                        responseBytes)) {
          anySuccess = true;
          // The cursor never passes a non-finite window time: a window
          // stamped +inf would stall the region's fetches for good.
          std::erase_if(windows, [](const rpc::SummaryWindow& w) {
            return !std::isfinite(w.time);
          });
          if (!region.connected[c]) {
            chan[c]->recordConnect();
            region.connected[c] = true;
          }
          chan[c]->recordCall(rpc::kSummaryRequestBytes, responseBytes);
          if (region.state == RootGroup::State::kDown) {
            // Liveness probe only — the cursor resets below; windows
            // fetched against the stale watermark are not queued.
            continue;
          }
          if (region.state == RootGroup::State::kRejoining &&
              !region.fresh[c] && !windows.empty()) {
            // Cursor catch-up: a restarted daemon's virtual clock (and
            // so its window grid) restarted from zero, so the backlog
            // it republished is stale history — resume from the
            // freshest window only and track its grid from there.
            windows.erase(windows.begin(), windows.end() - 1);
          }
          for (const rpc::SummaryWindow& w : windows) {
            analysis::GroupSummary summary;
            if (!summary.unpack(w.packed.data(), w.packed.size()) ||
                summary.members != static_cast<std::size_t>(region.size)) {
              logWarn("tiered live: dropping malformed summary window");
              continue;
            }
            region.queue[c].push_back(std::move(summary));
            region.fresh[c] = true;
            anyNew = true;
          }
          if (!windows.empty()) region.since[c] = windows.back().time;
        } else {
          chan[c]->recordFailedCall(rpc::kSummaryRequestBytes);
        }
      }
      if (anySuccess) {
        region.failStreak = 0;
        if (region.state == RootGroup::State::kDown) {
          region.state = RootGroup::State::kRejoining;
          for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
            region.fresh[c] = false;
            region.queue[c].clear();
            region.since[c] = 0.0;
          }
          logWarn("tiered live: aggregator answering again, region of " +
                  std::to_string(region.size) + " nodes rejoining");
        }
        if (region.state == RootGroup::State::kRejoining) {
          bool allFresh = true;
          for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
            if (!region.fresh[c]) allFresh = false;
          }
          if (allFresh) {
            region.state = RootGroup::State::kUp;
            logWarn("tiered live: region of " + std::to_string(region.size) +
                    " nodes re-admitted (fresh windows on every channel)");
          }
        }
      } else if (region.state != RootGroup::State::kDown &&
                 ++region.failStreak >= 3) {
        region.state = RootGroup::State::kDown;
        logWarn("tiered live: aggregator unresponsive, region of " +
                std::to_string(region.size) +
                " nodes merges as unmonitorable until it rejoins");
      }
    }

    for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
      processChannel(c);
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (elapsed >= wallDuration) {
      // Past the nominal end: drain until the aggregators go quiet (a
      // few empty polls) or the grace budget runs out.
      quietPolls = anyNew ? 0 : quietPolls + 1;
      if (quietPolls >= 3 || elapsed >= wallDuration + graceSeconds) break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(pollSeconds));
  }
  // No separate flush: a window some live region never delivered is a
  // shutdown-timing artifact, not a monitorable signal, and stays
  // unmerged. (Down regions were synthesized round by round above.)

  sortMonitoringEvents(result);
  // Ground truth comes from the spec, like the flat live path: the
  // caller started the leaf daemons with the same fault parameters.
  recordSpecTruth(result, spec);
  // Table 4, tier 2. (Tier-1 collection traffic and Table 3 daemon
  // costs accrue inside the aggregator processes, not here.)
  recordChannelReports(result, transports, spec);
  return result;
}

}  // namespace asdf::harness
