// Unit tests for the fault-tolerant collection layer: circuit-breaker
// state machine, retry/backoff schedules, monitoring-fault semantics
// (crash / hang / slow / partition), packet-loss coupling, and the
// seeded determinism of all of it.
#include "rpc/rpc_client.h"

#include <gtest/gtest.h>

#include "attempt_log.h"
#include "hadoop/cluster.h"
#include "rpc/daemons.h"
#include "sim/engine.h"

namespace asdf::rpc {
namespace {

class RpcClientTest : public ::testing::Test {
 protected:
  RpcClientTest() : cluster_(makeParams(), 21, engine_), hub_(cluster_, 0.0) {
    cluster_.start();
  }

  static hadoop::HadoopParams makeParams() {
    hadoop::HadoopParams p;
    p.slaveCount = 3;
    return p;
  }

  static RpcPolicy makePolicy() {
    RpcPolicy p;  // library defaults: timeout .25s, 3 retries, threshold 3
    return p;
  }

  RpcClient makeClient(std::uint64_t seed = 7) {
    return RpcClient(cluster_, hub_, makePolicy(), seed);
  }

  sim::SimEngine engine_;
  hadoop::Cluster cluster_;
  RpcHub hub_;
};

TEST(CircuitBreakerTest, StateMachineTransitions) {
  CircuitBreaker breaker(/*threshold=*/3, /*recoverySeconds=*/10.0);
  EXPECT_EQ(breaker.state(0.0), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allowRound(0.0));

  breaker.onRoundFailure(0.0);
  breaker.onRoundFailure(1.0);
  EXPECT_EQ(breaker.state(1.0), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutiveFailures(), 2);

  // Third consecutive failure trips the breaker.
  breaker.onRoundFailure(2.0);
  EXPECT_EQ(breaker.state(2.0), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allowRound(2.0));
  EXPECT_EQ(breaker.opens(), 1);

  // OPEN until the recovery interval elapses, then HALF_OPEN.
  EXPECT_EQ(breaker.state(11.9), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(12.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allowRound(12.0));

  // A failed probe goes back to OPEN for a fresh interval (not a new
  // "open" event: the breaker never closed).
  breaker.onRoundFailure(12.0);
  EXPECT_EQ(breaker.state(12.0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(21.9), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(22.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.opens(), 1);

  // A successful probe closes it and clears the failure streak.
  breaker.onRoundSuccess(22.0);
  EXPECT_EQ(breaker.state(22.0), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutiveFailures(), 0);

  // Re-opening after a recovery needs a full fresh streak.
  breaker.onRoundFailure(23.0);
  breaker.onRoundFailure(24.0);
  EXPECT_EQ(breaker.state(24.0), CircuitBreaker::State::kClosed);
  breaker.onRoundFailure(25.0);
  EXPECT_EQ(breaker.state(25.0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2);
}

TEST_F(RpcClientTest, HealthyFetchSucceedsFirstAttempt) {
  RpcClient client = makeClient();
  engine_.runUntil(5.0);
  Fetched<metrics::SadcSnapshot> got;
  client.fetchSadc(1, 5.0, got);
  EXPECT_TRUE(got.ok);
  EXPECT_FALSE(got.retried);
  EXPECT_EQ(got.attempts, 1);
  EXPECT_EQ(got.value.node.size(), cluster_.node(1).sadcCollect().node.size());
  EXPECT_EQ(client.health().channelHealth(1, Daemon::kSadc),
            NodeHealth::kHealthy);
  EXPECT_EQ(client.totalRounds(), 1);
  EXPECT_EQ(client.totalRetries(), 0);
}

TEST_F(RpcClientTest, CrashedDaemonExhaustsRetries) {
  RpcClient client = makeClient();
  engine_.runUntil(5.0);
  client.faults().setCrashed(1, Daemon::kSadc, true);

  Fetched<metrics::SadcSnapshot> got;
  client.fetchSadc(1, 5.0, got);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.attempts, 1 + makePolicy().maxRetries);
  EXPECT_EQ(client.health().channelHealth(1, Daemon::kSadc),
            NodeHealth::kUnmonitorable);
  // Every failed attempt still cost request + framing bytes on the wire.
  EXPECT_EQ(client.transports().channel("sadc-tcp").failedCalls(),
            1 + makePolicy().maxRetries);
  EXPECT_EQ(client.transports().channel("sadc-tcp").calls(), 0);
  // Other nodes and channels are unaffected.
  client.fetchSadc(2, 5.0, got);
  EXPECT_TRUE(got.ok);
  Fetched<syscalls::TraceSecond> trace;
  client.fetchStrace(1, 5.0, trace);
  EXPECT_TRUE(trace.ok);
}

TEST_F(RpcClientTest, BreakerOpensThenFastFailsWithoutTouchingWire) {
  RpcClient client = makeClient();
  engine_.runUntil(5.0);
  client.faults().setCrashed(1, Daemon::kSadc, true);

  Fetched<metrics::SadcSnapshot> got;
  for (int t = 1; t <= 3; ++t) {
    client.fetchSadc(1, 5.0 + t, got);
    EXPECT_FALSE(got.ok);
  }
  EXPECT_EQ(client.breakerState(1, 8.0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(client.totalBreakerOpens(), 1);

  const long wireFailures =
      client.transports().channel("sadc-tcp").failedCalls();
  client.fetchSadc(1, 9.0, got);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.attempts, 0);  // fast-failed
  EXPECT_EQ(client.totalFastFails(), 1);
  EXPECT_EQ(client.transports().channel("sadc-tcp").failedCalls(),
            wireFailures);  // the wire was not touched
}

TEST_F(RpcClientTest, HalfOpenProbeRecoversAfterDaemonRestart) {
  RpcClient client = makeClient();
  engine_.runUntil(5.0);
  client.faults().setCrashed(1, Daemon::kSadc, true);
  Fetched<metrics::SadcSnapshot> probe;
  for (int t = 1; t <= 3; ++t) client.fetchSadc(1, 5.0 + t, probe);
  ASSERT_EQ(client.breakerState(1, 8.0), CircuitBreaker::State::kOpen);

  // Daemon still down at probe time: the single probe fails and the
  // breaker re-opens for a fresh recovery interval.
  const SimTime probeTime = 8.0 + makePolicy().breakerRecoverySeconds;
  ASSERT_EQ(client.breakerState(1, probeTime),
            CircuitBreaker::State::kHalfOpen);
  client.fetchSadc(1, probeTime, probe);
  EXPECT_FALSE(probe.ok);
  EXPECT_EQ(probe.attempts, 1);  // HALF_OPEN sends exactly one probe
  EXPECT_EQ(client.breakerState(1, probeTime), CircuitBreaker::State::kOpen);

  // Daemon restarts; the next probe succeeds and closes the breaker.
  client.faults().setCrashed(1, Daemon::kSadc, false);
  const SimTime retryTime = probeTime + makePolicy().breakerRecoverySeconds;
  ASSERT_EQ(client.breakerState(1, retryTime),
            CircuitBreaker::State::kHalfOpen);
  engine_.runUntil(retryTime);
  client.fetchSadc(1, retryTime, probe);
  EXPECT_TRUE(probe.ok);
  EXPECT_EQ(probe.attempts, 1);
  EXPECT_EQ(client.breakerState(1, retryTime),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(client.health().channelHealth(1, Daemon::kSadc),
            NodeHealth::kHealthy);
}

TEST_F(RpcClientTest, HungDaemonCostsTimeoutPerAttempt) {
  RpcClient client = makeClient();
  AttemptLog attempts;
  client.setAttemptSink(&attempts);
  engine_.runUntil(5.0);
  client.faults().setHung(2, Daemon::kSadc, true);

  Fetched<metrics::SadcSnapshot> got;
  client.fetchSadc(2, 5.0, got);
  EXPECT_FALSE(got.ok);
  const std::vector<AttemptRecord> log = attempts.of(2);
  ASSERT_EQ(log.size(), static_cast<std::size_t>(got.attempts));
  EXPECT_EQ(log.front().at, 5.0);
  for (std::size_t i = 1; i < log.size(); ++i) {
    // Each retry waits out the full timeout plus a (jittered) backoff.
    EXPECT_GE(log[i].at - log[i - 1].at, makePolicy().timeoutSeconds);
    EXPECT_FALSE(log[i].success);
  }
}

TEST_F(RpcClientTest, SlowDaemonWithinTimeoutStillSucceeds) {
  RpcClient client = makeClient();
  engine_.runUntil(5.0);
  const RpcPolicy policy = makePolicy();

  // 50x slowdown: 0.1 s round trip, still inside the 0.25 s timeout.
  client.faults().setSlowFactor(2, Daemon::kSadc, 50.0);
  Fetched<metrics::SadcSnapshot> got;
  client.fetchSadc(2, 5.0, got);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.attempts, 1);

  // 250x: 0.5 s round trip blows the timeout on every attempt.
  client.faults().setSlowFactor(2, Daemon::kSadc, 250.0);
  client.fetchSadc(2, 6.0, got);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.attempts, 1 + policy.maxRetries);

  // Back to normal speed: recovers immediately (breaker never tripped).
  client.faults().setSlowFactor(2, Daemon::kSadc, 1.0);
  client.fetchSadc(2, 7.0, got);
  EXPECT_TRUE(got.ok);
}

TEST_F(RpcClientTest, PartitionBlocksEveryChannel) {
  RpcClient client = makeClient();
  cluster_.jobTracker().submit([] {
    hadoop::JobSpec spec;
    spec.inputBytes = 48.0e6;
    spec.numReduces = 2;
    return spec;
  }(), 0.0);
  engine_.runUntil(20.0);
  client.faults().setPartitioned(3, true);

  Fetched<metrics::SadcSnapshot> sadc;
  Fetched<std::vector<hadooplog::StateSample>> rows;
  client.fetchSadc(3, 20.0, sadc);
  EXPECT_FALSE(sadc.ok);
  client.fetchTt(3, 20.0, 20.0, rows);
  EXPECT_FALSE(rows.ok);
  client.fetchDn(3, 20.0, 20.0, rows);
  EXPECT_FALSE(rows.ok);
  for (const char* name : {"sadc-tcp", "hl-tt-tcp", "hl-dn-tcp"}) {
    EXPECT_GT(client.transports().channel(name).failedCalls(), 0) << name;
  }
  // The breaker is per *node*: three failed rounds (one per channel)
  // trip it, so the fourth channel fast-fails without wire traffic.
  Fetched<syscalls::TraceSecond> strace;
  client.fetchStrace(3, 20.0, strace);
  EXPECT_FALSE(strace.ok);
  EXPECT_EQ(strace.attempts, 0);
  EXPECT_EQ(client.transports().channel("strace-tcp").failedCalls(), 0);
  EXPECT_EQ(client.health().aggregate(3), NodeHealth::kUnmonitorable);

  // Healing the partition heals the node once the breaker's recovery
  // interval elapses and a probe gets through.
  client.faults().setPartitioned(3, false);
  const SimTime probeTime = 20.0 + makePolicy().breakerRecoverySeconds + 1.0;
  engine_.runUntil(probeTime);
  client.fetchSadc(3, probeTime, sadc);
  EXPECT_TRUE(sadc.ok);
  client.fetchTt(3, probeTime, probeTime, rows);
  EXPECT_TRUE(rows.ok);
  EXPECT_EQ(client.health().channelHealth(3, Daemon::kSadc),
            NodeHealth::kHealthy);
}

TEST_F(RpcClientTest, PacketLossCouplesIntoMonitoringPlane) {
  RpcClient client = makeClient();
  AttemptLog attempts;
  client.setAttemptSink(&attempts);
  engine_.runUntil(5.0);
  cluster_.node(1).nic().setLossRate(0.5);

  // P(attempt fails) = 0.5^2 = 0.25, so over a few hundred rounds we
  // must see retries; a whole round failing (4 straight losses) is rare
  // enough that the node stays effectively monitorable.
  long retried = 0;
  long failed = 0;
  Fetched<metrics::SadcSnapshot> got;
  for (int t = 0; t < 300; ++t) {
    client.fetchSadc(1, 5.0 + t, got);
    if (got.ok && got.retried) ++retried;
    if (!got.ok) ++failed;
  }
  EXPECT_GT(retried, 20);
  EXPECT_LT(failed, 30);
  EXPECT_GT(client.totalRetries(), 0);

  // Lossless nodes never draw from the RNG and never retry.
  for (int t = 0; t < 50; ++t) {
    client.fetchSadc(2, 5.0 + t, got);
    EXPECT_TRUE(got.ok);
  }
  const std::vector<AttemptRecord> cleanLog = attempts.of(2);
  EXPECT_EQ(cleanLog.size(), 50u);
  for (const AttemptRecord& rec : cleanLog) {
    EXPECT_TRUE(rec.success);
    EXPECT_EQ(rec.attempt, 0);
  }
}

TEST_F(RpcClientTest, BackoffScheduleIsSeedDeterministic) {
  cluster_.node(1).nic().setLossRate(0.5);
  engine_.runUntil(5.0);

  auto runSchedule = [&](std::uint64_t seed) {
    RpcClient client = makeClient(seed);
    AttemptLog attempts;
    client.setAttemptSink(&attempts);
    Fetched<metrics::SadcSnapshot> got;
    for (int t = 0; t < 200; ++t) client.fetchSadc(1, 5.0 + t, got);
    return attempts.of(1);
  };
  const auto a = runSchedule(7);
  const auto b = runSchedule(7);
  const auto c = runSchedule(8);

  // Same seed: byte-identical attempt schedule, timestamps included.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << i;
    EXPECT_EQ(a[i].attempt, b[i].attempt) << i;
    EXPECT_EQ(a[i].success, b[i].success) << i;
  }
  // The schedule actually exercised the retry path.
  bool sawRetry = false;
  for (const AttemptRecord& rec : a) sawRetry |= rec.attempt > 0;
  EXPECT_TRUE(sawRetry);

  // Different seed: the loss draws (and hence the schedule) diverge.
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != c[i].at || a[i].success != c[i].success;
  }
  EXPECT_TRUE(differs);
}

TEST_F(RpcClientTest, RegistryTracksStaleness) {
  RpcClient client = makeClient();
  engine_.runUntil(5.0);
  Fetched<metrics::SadcSnapshot> got;
  client.fetchSadc(1, 5.0, got);
  ASSERT_TRUE(got.ok);
  EXPECT_DOUBLE_EQ(client.health().staleness(1, Daemon::kSadc, 5.0), 0.0);

  client.faults().setCrashed(1, Daemon::kSadc, true);
  client.fetchSadc(1, 6.0, got);
  client.fetchSadc(1, 7.0, got);
  EXPECT_DOUBLE_EQ(client.health().staleness(1, Daemon::kSadc, 7.0), 2.0);
  // A channel that has never been polled carries no staleness signal.
  EXPECT_DOUBLE_EQ(client.health().staleness(2, Daemon::kStrace, 7.0), 0.0);
}

TEST(NodeIdFromOriginTest, ParsesSlaveLabels) {
  EXPECT_EQ(nodeIdFromOrigin("slave1"), 1);
  EXPECT_EQ(nodeIdFromOrigin("slave12"), 12);
  EXPECT_EQ(nodeIdFromOrigin("slave0"), kInvalidNode);
  EXPECT_EQ(nodeIdFromOrigin("slave"), kInvalidNode);
  EXPECT_EQ(nodeIdFromOrigin("slave2x"), kInvalidNode);
  EXPECT_EQ(nodeIdFromOrigin("master"), kInvalidNode);
  EXPECT_EQ(nodeIdFromOrigin(""), kInvalidNode);
}

}  // namespace
}  // namespace asdf::rpc
