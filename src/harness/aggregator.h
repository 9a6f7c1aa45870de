// The aggregation tier's live processes (DESIGN.md §12).
//
// AggregatorNode is the heart of asdf_aggd: one region's collection
// and reduce stages. It is a control node (runControlNode) whose plane
// collects from the region's leaf asdf_rpcd daemons, runs the
// buildAggregatorConfig() pipeline — per-leaf collection chains
// feeding one agg_bb and one agg_wb — on a RealTimeDriver, and
// re-serves the published GroupSummary windows upward through a
// net::AggServer on the same CRC-framed protocol.
//
// runTieredLiveExperiment() is the root: it fetches summaries from
// every aggregator, aligns windows across regions by virtual time,
// and merges them through the same modules::RootMerge the sim merge
// modules run (quorum gating, MonitoringEvents, and the shape check
// that drops a malformed window). An aggregator that stops answering is
// marked down after a failure streak and its whole region merges as
// unmonitorable — degraded analysis, not a crash — but down is
// transient: the root keeps probing (redials are backoff-gated in
// FramedClient, never a hot loop) and re-admits the region when the
// daemon answers again, resuming its summary cursor from the freshest
// published window (DESIGN.md §13 rejoin state machine).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/realtime.h"
#include "harness/experiment.h"
#include "net/agg_server.h"
#include "net/fanout_collector.h"
#include "rpc/summary.h"
#include "sim/engine.h"

namespace asdf::harness {

struct AggregatorOptions {
  /// The whole experiment's spec: total slave count, seed, window
  /// geometry, rpc policy, realtimeScale, duration — shared by every
  /// tier so the schedules line up. archiveDir, when set, flight-
  /// records this aggregator's collection rounds (the per-tier tap).
  ExperimentSpec base;
  /// The region: monitored nodes [firstNode, firstNode + groupSize).
  int firstNode = 1;
  int groupSize = 0;
  /// Leaf asdf_rpcd endpoints ("host:port"): one per node, or fewer
  /// shared ones (see net::FanoutCollector routing).
  std::vector<std::string> leafEndpoints;
  std::uint16_t port = 0;  // summary serving port (0 = ephemeral)
  /// Idle-connection reaping on the summary server (0 = never).
  double idleTimeoutSeconds = 0.0;
  /// Network-plane shards on the summary server (--shards; see
  /// net::ShardGroup). 1 = the classic single loop.
  int shards = 1;
};

/// Throws ConfigError when the region is empty or runs past
/// base.slaves. Needs no model or leaf, so a daemon can refuse a bad
/// region before it trains.
void checkRegion(const AggregatorOptions& opts);

class AggregatorNode {
 public:
  /// Connects to every leaf (throws NetError when one is unreachable).
  /// Throws ConfigError first when the region runs past base.slaves.
  /// The model must be the same one every other tier trained — same
  /// base seed, same derivations (trainModel()) — and must outlive the
  /// node.
  AggregatorNode(const AggregatorOptions& opts,
                 const analysis::BlackBoxModel& model);
  AggregatorNode(const AggregatorNode&) = delete;
  AggregatorNode& operator=(const AggregatorNode&) = delete;

  std::uint16_t port() const { return server_.port(); }
  const rpc::SummaryBoard& board() const { return board_; }

  /// Pumps the pipeline for base.duration virtual seconds while
  /// serving summary fetches; keeps serving after the pipeline
  /// finishes until stop() or a kShutdown frame. Blocks. Throws
  /// ConfigError, before serving, when the leaves serve fewer slaves
  /// than base.slaves; `onServing`, when set, is called once those
  /// checks passed, just before serving starts.
  void run(const std::function<void()>& onServing = {});
  /// Thread-safe; makes run() return, also when called before it.
  void stop();

 private:
  // What a region adds to the control node: its leaves, the wall-clock
  // pump and the summary server. runControlNode builds the rest.
  AggregatorOptions opts_;
  const analysis::BlackBoxModel& model_;
  std::string config_;
  rpc::SummaryBoard board_;
  net::FanoutCollector collector_;
  sim::SimEngine engine_;
  core::RealTimeDriver driver_;
  net::AggServer server_;
};

/// The root of a live tiered deployment: merges summaries fetched
/// from spec.aggEndpoints (one per tierGroupsFor(spec) entry) into
/// the same alarms, monitoring events and per-tier Table 4 channel
/// reports runExperiment() produces. Dispatched by runExperiment()
/// when transport == kLive && tiered.
ExperimentResult runTieredLiveExperiment(const ExperimentSpec& spec);

}  // namespace asdf::harness
