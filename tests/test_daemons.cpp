#include "rpc/daemons.h"

#include <gtest/gtest.h>

#include "hadoop/cluster.h"
#include "metrics/catalog.h"
#include "sim/engine.h"

namespace asdf::rpc {
namespace {

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest()
      : cluster_(makeParams(), 21, engine_) {
    cluster_.start();
  }

  static hadoop::HadoopParams makeParams() {
    hadoop::HadoopParams p;
    p.slaveCount = 3;
    return p;
  }

  static hadoop::JobSpec smallJob() {
    hadoop::JobSpec spec;
    spec.inputBytes = 48.0e6;
    spec.numReduces = 2;
    spec.mapOutputRatio = 0.5;
    return spec;
  }

  sim::SimEngine engine_;
  hadoop::Cluster cluster_;
};

TEST_F(DaemonTest, SadcFetchRoundTripsSnapshot) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(5.0);
  const metrics::SadcSnapshot direct = cluster_.node(1).sadcCollect();
  std::size_t bytes = 0;
  const metrics::SadcSnapshot viaRpc = hub.sadc(1).fetch(bytes);
  EXPECT_GT(bytes, 0u);
  ASSERT_EQ(viaRpc.node.size(), metrics::kNodeMetricCount);
  ASSERT_EQ(viaRpc.nic.size(), metrics::kNicMetricCount);
  EXPECT_DOUBLE_EQ(viaRpc.time, direct.time);
  for (std::size_t i = 0; i < direct.node.size(); ++i) {
    EXPECT_DOUBLE_EQ(viaRpc.node[i], direct.node[i]) << i;
  }
  EXPECT_EQ(viaRpc.processes.size(), direct.processes.size());
}

// Call accounting lives in the client: the hub's own fault-free client
// charges its registry once per call.
TEST_F(DaemonTest, SadcChannelTracksTraffic) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(3.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(hub.client().fetchSadc(1, 3.0).ok);
  }
  const RpcChannelStats& ch = hub.transports().channel("sadc-tcp");
  EXPECT_EQ(ch.calls(), 10);
  EXPECT_EQ(ch.connects(), 3);  // one per slave at hub construction
  // One sadc snapshot is roughly a kilobyte on the wire (Table 4).
  EXPECT_GT(ch.bytesPerCall(), 500.0);
  EXPECT_LT(ch.bytesPerCall(), 4000.0);
}

TEST_F(DaemonTest, HadoopLogDaemonProducesStateVectors) {
  RpcHub hub(cluster_, 0.0);
  cluster_.jobTracker().submit(smallJob(), 0.0);
  std::size_t ttSamples = 0;
  std::size_t dnSamples = 0;
  for (int t = 1; t <= 120; ++t) {
    engine_.runUntil(t);
    std::size_t bytes = 0;
    for (const auto& s : hub.hadoopLog(1).fetchTt(t, bytes)) {
      EXPECT_EQ(s.counts.size(), hadooplog::kTtStateCount);
      ++ttSamples;
    }
    for (const auto& s : hub.hadoopLog(1).fetchDn(t, bytes)) {
      EXPECT_EQ(s.counts.size(), hadooplog::kDnStateCount);
      ++dnSamples;
    }
  }
  // One sample per second, minus the finalization lag.
  EXPECT_GE(ttSamples, 115u);
  EXPECT_GE(dnSamples, 115u);
}

TEST_F(DaemonTest, HadoopLogSamplesAreContiguousSeconds) {
  RpcHub hub(cluster_, 0.0);
  cluster_.jobTracker().submit(smallJob(), 0.0);
  long expected = 0;
  for (int t = 1; t <= 60; ++t) {
    engine_.runUntil(t);
    std::size_t bytes = 0;
    for (const auto& s : hub.hadoopLog(2).fetchTt(t, bytes)) {
      EXPECT_EQ(s.second, expected);
      ++expected;
    }
  }
  EXPECT_GT(expected, 50);
}

TEST_F(DaemonTest, DaemonsMeterTheirCpu) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(5.0);
  std::size_t bytes = 0;
  for (int i = 0; i < 100; ++i) {
    hub.sadc(1).fetch(bytes);
    hub.hadoopLog(1).fetchTt(5.0, bytes);
  }
  EXPECT_GT(hub.sadcCpuSeconds(), 0.0);
  EXPECT_GT(hub.hadoopLogCpuSeconds(), 0.0);
  EXPECT_GT(hub.sadcMemoryBytes(), 0u);
  EXPECT_GT(hub.hadoopLogMemoryBytes(), 0u);
}

TEST_F(DaemonTest, FetchChargesTheMonitoredNode) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(2.0);
  // Fetch repeatedly within one tick, then close the tick and check
  // that the node recorded monitoring traffic.
  std::size_t bytes = 0;
  for (int i = 0; i < 50; ++i) hub.sadc(1).fetch(bytes);
  cluster_.node(1).endTick(3.0);
  const auto snap = cluster_.node(1).sadcCollect();
  EXPECT_GT(snap.nic[metrics::kNicTxKbPerSec], 10.0);
}

TEST_F(DaemonTest, SeparateChannelsForTtAndDn) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(10.0);
  ASSERT_TRUE(hub.client().fetchTt(1, 10.0, 10.0).ok);
  ASSERT_TRUE(hub.client().fetchDn(1, 10.0, 10.0).ok);
  EXPECT_EQ(hub.transports().channel("hl-tt-tcp").calls(), 1);
  EXPECT_EQ(hub.transports().channel("hl-dn-tcp").calls(), 1);
}

}  // namespace
}  // namespace asdf::rpc
