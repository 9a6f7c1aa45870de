// The aggregation tier over real sockets, end to end: leaf asdf_rpcd
// daemons -> AggregatorNode regions -> the tiered root merge
// (DESIGN.md §12). Two contracts:
//
//   * a healthy tiered live deployment produces byte-for-byte the
//     black-box alarms a sim-transport run of the same seeded workload
//     produces (the tier extends the §9 sim/live equivalence
//     contract), and an equivalent white-box verdict — same
//     localization, no spurious degradation events. White-box rows
//     pass through the log-sync barrier, whose drop set depends on
//     which nodes it spans, so a region barrier legitimately releases
//     seconds the flat global barrier drops; byte-identity is only
//     promised where both topologies see the same barrier (the sim
//     tiered path, test_tiered.cpp).
//
//   * killing an aggregator mid-run degrades — its whole region merges
//     as unmonitorable, quorum gating keeps the analysis valid, and a
//     fault in a surviving region is still localized.
//
// Each aggregator gets its own leaf daemon hosting the full-cluster
// simulation (same seed): daemons advance their sim lazily to each
// request's virtual time, so regions with independent wall-clock skew
// must not share one daemon's clock.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "harness/aggregator.h"
#include "harness/experiment.h"
#include "modules/modules.h"
#include "net/rpcd_server.h"

namespace asdf::harness {
namespace {

struct LeafFixture {
  explicit LeafFixture(net::RpcdOptions opts) : server(opts) {
    thread = std::thread([this] { server.run(); });
  }
  ~LeafFixture() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
  net::RpcdServer server;
  std::thread thread;
};

struct AggFixture {
  AggFixture(const AggregatorOptions& opts,
             const analysis::BlackBoxModel& model)
      : node(opts, model) {
    thread = std::thread([this] { node.run(); });
  }
  ~AggFixture() {
    node.stop();
    if (thread.joinable()) thread.join();
  }
  AggregatorNode node;
  std::thread thread;
};

ExperimentSpec baseSpec(int slaves) {
  ExperimentSpec spec;
  spec.slaves = slaves;
  spec.duration = 300.0;
  spec.trainDuration = 180.0;
  spec.seed = 4242;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = 2;
  spec.fault.startTime = 120.0;
  spec.pipeline.quietPrint = true;
  spec.realtimeScale = 150.0;  // 300 virtual seconds in ~2 s wall
  // Generous per-attempt timeout: a loaded CI machine must not turn a
  // healthy localhost fetch into a divergence.
  spec.rpcPolicy.timeoutSeconds = 5.0;
  return spec;
}

std::string endpointOf(const LeafFixture& leaf) {
  return "127.0.0.1:" + std::to_string(leaf.server.port());
}

void expectSeriesEqual(const analysis::AlarmSeries& a,
                       const analysis::AlarmSeries& b, const char* which) {
  ASSERT_EQ(a.size(), b.size()) << which;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time) << which << " record " << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << which << " record " << i;
    EXPECT_EQ(a[i].scores, b[i].scores) << which << " record " << i;
    EXPECT_EQ(a[i].health, b[i].health) << which << " record " << i;
  }
}

// The tentpole contract at the tier level: same seed, same fault, same
// alarms — whether the windows traveled through in-process DAG edges
// or through two real aggregator daemons on loopback sockets.
TEST(AggE2E, TieredLiveMatchesSimByteForByte) {
  modules::registerBuiltinModules();

  ExperimentSpec spec = baseSpec(/*slaves=*/4);
  // The sim reference uses the fault-tolerant client like the
  // aggregators do, so per-alarm health vectors are present in both.
  ExperimentSpec simSpec = spec;
  simSpec.faultTolerantRpc = true;
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult sim = runExperiment(simSpec, model);

  net::RpcdOptions leafOpts;
  leafOpts.port = 0;
  leafOpts.slaves = spec.slaves;
  leafOpts.seed = spec.seed;
  leafOpts.fault = spec.fault;
  LeafFixture leaf1(leafOpts);
  LeafFixture leaf2(leafOpts);

  AggregatorOptions a1;
  a1.base = spec;
  a1.firstNode = 1;
  a1.groupSize = 2;
  a1.leafEndpoints = {endpointOf(leaf1)};
  AggregatorOptions a2 = a1;
  a2.firstNode = 3;
  a2.leafEndpoints = {endpointOf(leaf2)};
  AggFixture agg1(a1, model);
  AggFixture agg2(a2, model);

  ExperimentSpec rootSpec = spec;
  rootSpec.transport = TransportMode::kLive;
  rootSpec.tiered = true;
  rootSpec.tierGroups = {2, 2};
  rootSpec.aggEndpoints = {"127.0.0.1:" + std::to_string(agg1.node.port()),
                           "127.0.0.1:" + std::to_string(agg2.node.port())};
  const ExperimentResult live = runExperiment(rootSpec, model);

  expectSeriesEqual(sim.blackBox, live.blackBox, "black-box");

  // White-box: ordinal pairing at the root means the series length is
  // the shortest region's window count and each window's time is the
  // slowest region's. Regional barriers may drop one or two fewer
  // seconds than the global one, so allow a short tail, and require
  // the same healthy shape: every node monitored in every window, no
  // degradation events.
  ASSERT_FALSE(live.whiteBox.empty());
  EXPECT_LE(live.whiteBox.size(), sim.whiteBox.size());
  EXPECT_GE(live.whiteBox.size() + 2, sim.whiteBox.size());
  for (std::size_t i = 1; i < live.whiteBox.size(); ++i) {
    EXPECT_LT(live.whiteBox[i - 1].time, live.whiteBox[i].time);
  }
  for (const analysis::AlarmRecord& r : live.whiteBox) {
    ASSERT_EQ(r.health.size(), 4u);
    for (double h : r.health) EXPECT_EQ(h, 0.0);
  }
  EXPECT_TRUE(live.monitoringEvents.empty());

  // And the white-box verdict is the sim's: the fault is localized
  // with the same order of latency.
  const ExperimentSummary simSummary = summarize(sim);
  const ExperimentSummary liveSummary = summarize(live);
  ASSERT_GE(simSummary.whiteBox.latencySeconds, 0.0);
  ASSERT_GE(liveSummary.whiteBox.latencySeconds, 0.0);
  EXPECT_NEAR(liveSummary.whiteBox.latencySeconds,
              simSummary.whiteBox.latencySeconds,
              2.0 * spec.pipeline.windowSlide);

  // Tier-2 accounting: one summary channel per analysis, one connect
  // per aggregator, tagged tier 2.
  int tier2 = 0;
  for (const RpcChannelReport& ch : live.rpcChannels) {
    EXPECT_EQ(ch.tier, 2) << ch.name;
    EXPECT_EQ(ch.connects, 2) << ch.name;
    EXPECT_GT(ch.calls, 0) << ch.name;
    ++tier2;
  }
  EXPECT_EQ(tier2, 2);

  EXPECT_GE(liveSummary.combined.latencySeconds, 0.0);
}

// Kill one aggregator mid-run: its region merges as all-unmonitorable,
// the explicit quorum keeps the surviving region's analysis valid, and
// the fault (in the surviving region) is still localized.
TEST(AggE2E, DegradedAnalysisSurvivesAggregatorDeath) {
  modules::registerBuiltinModules();

  ExperimentSpec spec = baseSpec(/*slaves=*/6);
  spec.fault.node = 2;  // group 1: survives

  const analysis::BlackBoxModel model = trainModel(spec);

  net::RpcdOptions leafOpts;
  leafOpts.port = 0;
  leafOpts.slaves = spec.slaves;
  leafOpts.seed = spec.seed;
  leafOpts.fault = spec.fault;
  LeafFixture leaf1(leafOpts);
  LeafFixture leaf2(leafOpts);

  AggregatorOptions a1;
  a1.base = spec;
  a1.firstNode = 1;
  a1.groupSize = 3;
  a1.leafEndpoints = {endpointOf(leaf1)};
  AggregatorOptions a2 = a1;
  a2.firstNode = 4;
  a2.leafEndpoints = {endpointOf(leaf2)};
  AggFixture agg1(a1, model);
  auto agg2 = std::make_unique<AggFixture>(a2, model);

  ExperimentSpec rootSpec = spec;
  rootSpec.transport = TransportMode::kLive;
  rootSpec.tiered = true;
  rootSpec.tierGroups = {3, 3};
  rootSpec.pipeline.quorum = 3;  // sub-majority: 3 of 6 survivors suffice
  // Short per-fetch timeout so the dead region is detected quickly.
  rootSpec.rpcPolicy.timeoutSeconds = 1.0;
  rootSpec.aggEndpoints = {
      "127.0.0.1:" + std::to_string(agg1.node.port()),
      "127.0.0.1:" + std::to_string(agg2->node.port())};

  // Kill region 2 at ~60% of the run; destruction closes its sockets,
  // so the root sees refused connections, not timeouts.
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    agg2.reset();
  });
  const ExperimentResult live = runExperiment(rootSpec, model);
  killer.join();

  // The root kept producing windows for the whole run, and flagged the
  // region's death as a degradation transition, not below-quorum.
  ASSERT_FALSE(live.blackBox.empty());
  bool sawRegionDown = false;
  for (const core::MonitoringEvent& ev : live.monitoringEvents) {
    if (ev.unmonitorable.size() == 3 && !ev.belowQuorum) {
      EXPECT_EQ(ev.unmonitorable[0], "slave4");
      EXPECT_EQ(ev.unmonitorable[2], "slave6");
      EXPECT_EQ(ev.survivors, 3);
      sawRegionDown = true;
    }
  }
  EXPECT_TRUE(sawRegionDown);

  // Late windows carry the dead region as health-2 and still score the
  // survivors.
  const analysis::AlarmRecord& last = live.blackBox.back();
  ASSERT_EQ(last.health.size(), 6u);
  EXPECT_EQ(last.health[3], 2.0);
  EXPECT_EQ(last.health[5], 2.0);

  // And the fault in the surviving region is localized.
  const ExperimentSummary summary = summarize(live);
  EXPECT_GE(summary.combined.latencySeconds, 0.0);
}

// A region that runs past the cluster is refused with the range named,
// before the node dials its leaves.
TEST(AggE2E, RegionPastTheClusterIsRejected) {
  modules::registerBuiltinModules();
  ExperimentSpec spec = baseSpec(/*slaves=*/6);
  const analysis::BlackBoxModel model = trainModel(spec);

  net::RpcdOptions leafOpts;
  leafOpts.slaves = spec.slaves;
  leafOpts.seed = spec.seed;
  LeafFixture leaf(leafOpts);

  AggregatorOptions opts;
  opts.base = spec;
  opts.firstNode = 5;
  opts.groupSize = 4;
  opts.leafEndpoints = {endpointOf(leaf)};
  try {
    AggregatorNode node(opts, model);
    ADD_FAILURE() << "a region of nodes 5..8 in a 6-slave cluster started";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("5..8"), std::string::npos)
        << e.what();
  }
}

// A leaf serving fewer slaves than the cluster the aggregator was told
// about is refused when the node runs, before anything is served —
// also when it is not the region's first leaf.
TEST(AggE2E, LeafServingTooFewSlavesIsRejected) {
  modules::registerBuiltinModules();
  ExperimentSpec spec = baseSpec(/*slaves=*/8);
  const analysis::BlackBoxModel model = trainModel(spec);

  net::RpcdOptions leafOpts;
  leafOpts.seed = spec.seed;
  leafOpts.slaves = 8;
  LeafFixture full(leafOpts);
  leafOpts.slaves = 6;
  LeafFixture small(leafOpts);

  for (const std::vector<std::string>& leaves :
       {std::vector<std::string>{endpointOf(small)},
        std::vector<std::string>{endpointOf(full), endpointOf(small)}}) {
    AggregatorOptions opts;
    opts.base = spec;
    opts.firstNode = 5;
    opts.groupSize = 4;
    opts.leafEndpoints = leaves;
    AggregatorNode node(opts, model);
    try {
      node.run();
      ADD_FAILURE() << "an aggregator over a 6-slave leaf ran for 8 slaves";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("serves 6 slaves"),
                std::string::npos)
          << e.what();
    }
  }
}

// The aggregator's client sleeps each retry backoff in wall time, like
// the flat live control node's: against a leaf that has gone away, a
// failed round must not retry at once. Every node's first sadc round
// fails (the breaker then stays open for the rest of the run), so the
// first black-box window cannot be published before those rounds'
// backoffs have been slept — far later than its nominal wall time.
TEST(AggE2E, RetriesAgainstADeadLeafSleepTheirBackoff) {
  modules::registerBuiltinModules();
  ExperimentSpec spec = baseSpec(/*slaves=*/3);
  const analysis::BlackBoxModel model = trainModel(spec);
  spec.realtimeScale = 3000.0;  // first window due ~0.02 s wall
  spec.rpcPolicy.timeoutSeconds = 1.0;
  spec.rpcPolicy.maxRetries = 1;
  spec.rpcPolicy.backoffBase = 0.2;
  spec.rpcPolicy.backoffMax = 0.2;
  spec.rpcPolicy.breakerThreshold = 1;
  spec.rpcPolicy.breakerRecoverySeconds = 1.0e6;

  net::RpcdOptions leafOpts;
  leafOpts.slaves = spec.slaves;
  leafOpts.seed = spec.seed;
  auto leaf = std::make_unique<LeafFixture>(leafOpts);

  AggregatorOptions opts;
  opts.base = spec;
  opts.firstNode = 1;
  opts.groupSize = spec.slaves;
  opts.leafEndpoints = {endpointOf(*leaf)};
  AggregatorNode node(opts, model);
  leaf.reset();  // the leaf goes away after the node has dialed it

  const auto start = std::chrono::steady_clock::now();
  std::thread runner([&node] { node.run(); });
  while (node.board().windowCount(rpc::SummaryChannel::kBlackBox) == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double firstWindowSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  node.stop();
  runner.join();

  // One failed sadc round per node, each sleeping one backoff of at
  // least 0.75 * backoffBase (the jitter is +/-25%).
  const double minSlept = spec.slaves * 0.75 * spec.rpcPolicy.backoffBase;
  EXPECT_GE(firstWindowSeconds, minSlept);
  EXPECT_LT(firstWindowSeconds, 30.0) << "no window was ever published";
}

// A module that throws on the pump thread (here knn, handed a model of
// the wrong dimension) stops the node: run() rethrows the error on the
// caller's thread instead of the process ending in std::terminate.
TEST(AggE2E, ModuleErrorOnThePumpThreadIsRethrownByRun) {
  modules::registerBuiltinModules();
  ExperimentSpec spec = baseSpec(/*slaves=*/3);
  spec.realtimeScale = 3000.0;
  analysis::BlackBoxModel model;
  model.sigmas = {1.0};
  model.centroids.push_back(std::vector<double>{0.0});

  net::RpcdOptions leafOpts;
  leafOpts.slaves = spec.slaves;
  leafOpts.seed = spec.seed;
  LeafFixture leaf(leafOpts);

  AggregatorOptions opts;
  opts.base = spec;
  opts.firstNode = 1;
  opts.groupSize = spec.slaves;
  opts.leafEndpoints = {endpointOf(leaf)};
  opts.port = 0;
  AggregatorNode node(opts, model);
  const auto start = std::chrono::steady_clock::now();
  try {
    node.run();
    ADD_FAILURE() << "a knn model of dimension 1 ran on 82-metric samples";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("does not match model dimension 1"),
              std::string::npos)
        << e.what();
  }
  // The error stops serving; run() does not wait out the schedule.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            30.0);
}

}  // namespace
}  // namespace asdf::harness
