// Live collection plane, end to end: an in-process asdf_rpcd served
// from a background thread, real framed-TCP sockets on loopback, and
// the contracts the live wire must honor —
//
//   * the transport handshakes, fetches typed data and survives
//     application errors without dropping the connection;
//   * a live harness run produces byte-for-byte the same alarms as a
//     sim-transport run of the same seeded workload (the §9 sim/live
//     equivalence contract); and
//   * failed live attempts charge request/framing bytes through
//     RpcChannelStats exactly like simulated failures do.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "harness/experiment.h"
#include "metrics/catalog.h"
#include "modules/modules.h"
#include "net/live_transport.h"
#include "net/rpcd_server.h"
#include "rpc/payloads.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"

namespace asdf::net {
namespace {

struct ServerFixture {
  explicit ServerFixture(RpcdOptions opts) : server(opts) {
    thread = std::thread([this] { server.run(); });
  }
  ~ServerFixture() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
  void stopAndJoin() {
    server.stop();
    thread.join();
  }

  RpcdServer server;
  std::thread thread;
};

LiveTransport::Options clientOptions(const ServerFixture& fx) {
  LiveTransport::Options topts;
  topts.port = fx.server.port();
  topts.timeoutSeconds = 5.0;
  return topts;
}

TEST(LiveTransport, HandshakeFetchAndApplicationErrors) {
  RpcdOptions opts;
  opts.slaves = 4;
  opts.seed = 7;
  ServerFixture fx(opts);

  LiveTransport transport(clientOptions(fx));
  EXPECT_EQ(transport.slaves(), 4);
  EXPECT_EQ(transport.serverSeed(), 7u);
  EXPECT_EQ(transport.serverSource(), "sim");

  metrics::SadcSnapshot snap;
  std::size_t bytes = 0;
  ASSERT_TRUE(rpc::collectOne(
      transport, {rpc::CollectKind::kSadc, 1, 5.0, kNoTime}, &snap, bytes));
  EXPECT_EQ(snap.node.size(), static_cast<std::size_t>(metrics::kNodeMetricCount));
  EXPECT_EQ(snap.nic.size(), static_cast<std::size_t>(metrics::kNicMetricCount));
  EXPECT_GT(bytes, 0u);

  // Unknown node -> kError response: the attempt fails but the
  // connection stays usable (no reconnect needed).
  EXPECT_FALSE(rpc::collectOne(
      transport, {rpc::CollectKind::kSadc, 99, 5.0, kNoTime}, &snap, bytes));
  EXPECT_EQ(transport.reconnects(), 0);
  EXPECT_TRUE(rpc::collectOne(
      transport, {rpc::CollectKind::kSadc, 2, 5.0, kNoTime}, &snap, bytes));

  std::vector<hadooplog::StateSample> rows;
  EXPECT_TRUE(rpc::collectOne(transport, {rpc::CollectKind::kTt, 1, 10.0, 10.0},
                              &rows, bytes));
  EXPECT_TRUE(rpc::collectOne(transport, {rpc::CollectKind::kDn, 1, 10.0, 10.0},
                              &rows, bytes));

  syscalls::TraceSecond trace;
  EXPECT_TRUE(rpc::collectOne(
      transport, {rpc::CollectKind::kStrace, 1, 10.0, kNoTime}, &trace, bytes));

  ClusterStatsWire stats;
  ASSERT_TRUE(transport.fetchStats(20.0, stats));
  EXPECT_GE(stats.simNow, 20.0);

  // kShutdown makes the daemon's run() return; the fixture join then
  // completes without stop().
  transport.shutdownServer();
  fx.thread.join();
  fx.thread = std::thread([] {});  // keep the dtor's join happy
}

TEST(LiveTransport, ProcSourceServesCountersButNotStrace) {
  RpcdOptions opts;
  opts.slaves = 3;
  opts.source = "proc";
  ServerFixture fx(opts);

  LiveTransport transport(clientOptions(fx));
  EXPECT_EQ(transport.serverSource(), "proc");

  metrics::SadcSnapshot snap;
  std::size_t bytes = 0;
  ASSERT_TRUE(rpc::collectOne(
      transport, {rpc::CollectKind::kSadc, 2, 1.0, kNoTime}, &snap, bytes));
  EXPECT_EQ(snap.node.size(), static_cast<std::size_t>(metrics::kNodeMetricCount));

  std::vector<hadooplog::StateSample> rows;
  EXPECT_TRUE(rpc::collectOne(transport, {rpc::CollectKind::kTt, 1, 30.0, 30.0},
                              &rows, bytes));

  // The proc source has no syscall tracer: kUnsupported, not a hang.
  syscalls::TraceSecond trace;
  EXPECT_FALSE(rpc::collectOne(
      transport, {rpc::CollectKind::kStrace, 1, 1.0, kNoTime}, &trace, bytes));
}

// Only IPv4 literals can be dialed: a hostname fails at construction
// and says so, even while the daemon it names is serving.
TEST(LiveTransport, HostnameEndpointThrowsNamingTheHost) {
  RpcdOptions opts;
  opts.slaves = 2;
  ServerFixture fx(opts);
  LiveTransport serving(clientOptions(fx));
  EXPECT_EQ(serving.slaves(), 2);

  LiveTransport::Options topts = clientOptions(fx);
  topts.host = "localhost";
  try {
    LiveTransport transport(topts);
    ADD_FAILURE() << "a hostname endpoint was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("'localhost' is not an IPv4 literal"),
              std::string::npos)
        << e.what();
  }
}

TEST(LiveTransport, ConnectToDeadPortThrows) {
  LiveTransport::Options topts;
  topts.port = 1;  // privileged and unused: connection refused
  topts.timeoutSeconds = 0.5;
  EXPECT_THROW(LiveTransport transport(topts), NetError);
}

// Satellite: failed live attempts must charge request + framing bytes
// through RpcChannelStats exactly like simulated failed attempts.
TEST(LiveRpcClient, FailedAttemptsChargeBytesLikeSim) {
  RpcdOptions opts;
  opts.slaves = 2;
  ServerFixture fx(opts);

  // Short per-attempt deadline: once the daemon is stopped its listen
  // socket still queues connects, so each failed attempt runs to the
  // full timeout — keep the test fast.
  LiveTransport::Options topts = clientOptions(fx);
  topts.timeoutSeconds = 0.3;
  LiveTransport transport(topts);
  rpc::RpcPolicy policy;
  policy.timeoutSeconds = 2.0;
  policy.maxRetries = 2;
  policy.backoffBase = 0.001;  // real sleeps in live mode: keep them tiny
  policy.backoffMax = 0.002;
  rpc::RpcClient client(transport, policy, /*seed=*/99);

  rpc::Fetched<metrics::SadcSnapshot> fetched;
  client.fetchSadc(1, 1.0, fetched);
  ASSERT_TRUE(fetched.ok);
  EXPECT_EQ(fetched.attempts, 1);

  rpc::RpcChannelStats& live = client.transports().channel("sadc-tcp");
  const long callsBefore = live.calls();
  const double bytesBefore = live.totalCallBytes();

  // Kill the daemon; every subsequent attempt fails on the wire.
  fx.stopAndJoin();
  rpc::Fetched<metrics::SadcSnapshot> failed;
  client.fetchSadc(1, 2.0, failed);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.attempts, policy.maxRetries + 1);

  EXPECT_EQ(live.calls(), callsBefore);  // no successful call recorded
  EXPECT_EQ(live.failedCalls(), policy.maxRetries + 1);

  // Reference: the simulated accounting for the same failure pattern.
  rpc::RpcChannelStats simStats("sadc-tcp");
  for (int i = 0; i <= policy.maxRetries; ++i) {
    simStats.recordFailedCall(rpc::kCollectRequestBytes);
  }
  EXPECT_DOUBLE_EQ(live.totalCallBytes() - bytesBefore,
                   simStats.totalCallBytes());

  // The failure also lands in the health registry, like sim failures.
  EXPECT_EQ(client.health().channelHealth(1, rpc::Daemon::kSadc),
            rpc::NodeHealth::kUnmonitorable);
}

// The tentpole contract (§9): for the same seeded workload and fault,
// a live-transport harness run must produce the same alarm series a
// sim-transport run produces — the daemon hosts the identical cluster
// simulation and the analysis pipeline cannot tell the difference.
TEST(LiveE2E, SimAndLiveTransportsProduceIdenticalAlarms) {
  modules::registerBuiltinModules();

  harness::ExperimentSpec spec;
  spec.slaves = 4;
  spec.duration = 300.0;
  spec.trainDuration = 180.0;
  spec.seed = 4242;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = 2;
  spec.fault.startTime = 120.0;
  spec.pipeline.quietPrint = true;
  // Both runs use the fault-tolerant client so the pipelines (and the
  // per-alarm health vectors) are structurally identical; generous
  // per-attempt timeout so a loaded CI machine cannot make the live
  // run diverge by timing out a healthy localhost fetch.
  spec.faultTolerantRpc = true;
  spec.rpcPolicy.timeoutSeconds = 5.0;

  const analysis::BlackBoxModel model = harness::trainModel(spec);
  const harness::ExperimentResult sim = harness::runExperiment(spec, model);

  RpcdOptions opts;
  opts.slaves = spec.slaves;
  opts.seed = spec.seed;
  opts.fault = spec.fault;
  ServerFixture fx(opts);

  harness::ExperimentSpec liveSpec = spec;
  liveSpec.transport = harness::TransportMode::kLive;
  liveSpec.livePort = fx.server.port();
  liveSpec.realtimeScale = 150.0;  // 300 virtual seconds in ~2 s wall
  const harness::ExperimentResult live =
      harness::runExperiment(liveSpec, model);

  auto expectSeriesEqual = [](const analysis::AlarmSeries& a,
                              const analysis::AlarmSeries& b,
                              const char* which) {
    ASSERT_EQ(a.size(), b.size()) << which;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].time, b[i].time) << which << " record " << i;
      EXPECT_EQ(a[i].flags, b[i].flags) << which << " record " << i;
      EXPECT_EQ(a[i].scores, b[i].scores) << which << " record " << i;
      EXPECT_EQ(a[i].health, b[i].health) << which << " record " << i;
    }
  };
  expectSeriesEqual(sim.blackBox, live.blackBox, "black-box");
  expectSeriesEqual(sim.whiteBox, live.whiteBox, "white-box");

  // Ground truth travels over the wire (kStats) in live mode; it must
  // match what the local simulation recorded.
  EXPECT_EQ(sim.truth.slaveIndex, live.truth.slaveIndex);
  EXPECT_DOUBLE_EQ(sim.truth.faultStart, live.truth.faultStart);
  EXPECT_DOUBLE_EQ(sim.truth.faultEnd, live.truth.faultEnd);
  EXPECT_EQ(sim.jobsSubmitted, live.jobsSubmitted);
  EXPECT_EQ(sim.jobsCompleted, live.jobsCompleted);
  EXPECT_EQ(sim.tasksCompleted, live.tasksCompleted);

  // Satellite: identical workloads cost identical bytes — per channel,
  // connects, calls and both Table 4 numbers must agree exactly.
  ASSERT_EQ(sim.rpcChannels.size(), live.rpcChannels.size());
  for (std::size_t i = 0; i < sim.rpcChannels.size(); ++i) {
    const harness::RpcChannelReport& s = sim.rpcChannels[i];
    const harness::RpcChannelReport& l = live.rpcChannels[i];
    EXPECT_EQ(s.name, l.name);
    EXPECT_EQ(s.connects, l.connects) << s.name;
    EXPECT_EQ(s.calls, l.calls) << s.name;
    EXPECT_EQ(s.failedCalls, l.failedCalls) << s.name;
    EXPECT_DOUBLE_EQ(s.staticOverheadKb, l.staticOverheadKb) << s.name;
    EXPECT_DOUBLE_EQ(s.perIterationKbPerSec, l.perIterationKbPerSec)
        << s.name;
  }

  // Both runs saw the same rounds with zero wire failures.
  EXPECT_EQ(sim.rpcRounds, live.rpcRounds);
  EXPECT_EQ(live.rpcFailedRounds, 0);
  EXPECT_EQ(live.rpcRetries, 0);

  // And the live run actually localized the fault.
  const harness::ExperimentSummary summary = harness::summarize(live);
  EXPECT_GE(summary.combined.latencySeconds, 0.0);
}

}  // namespace
}  // namespace asdf::net
