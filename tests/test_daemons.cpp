#include "rpc/daemons.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "hadoop/cluster.h"
#include "hadooplog/parser.h"
#include "metrics/catalog.h"
#include "rpc/payloads.h"
#include "sim/engine.h"

namespace asdf::rpc {
namespace {

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expectSameSnapshot(const metrics::SadcSnapshot& got,
                        const metrics::SadcSnapshot& want) {
  EXPECT_EQ(std::memcmp(&got.time, &want.time, sizeof(double)), 0);
  EXPECT_TRUE(sameBits(got.node, want.node));
  EXPECT_TRUE(sameBits(got.nic, want.nic));
  ASSERT_EQ(got.processes.size(), want.processes.size());
  for (std::size_t i = 0; i < got.processes.size(); ++i) {
    EXPECT_EQ(got.processes[i].first, want.processes[i].first);
    EXPECT_TRUE(sameBits(got.processes[i].second, want.processes[i].second));
  }
}

void expectSameSamples(const std::vector<hadooplog::StateSample>& got,
                       const std::vector<hadooplog::StateSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, want[i].second);
    EXPECT_TRUE(sameBits(got[i].counts, want[i].counts));
  }
}

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

// The hub hands values over in process and computes their wire size:
// both must be exactly what a marshal -> unmarshal of the same data
// yields, so sim and live runs agree value for value and byte for byte.
// The reference samples come from parsers of the test's own reading
// the same node logs. The strace channel charges the length prefix
// plus one byte per event, the convention RpcClient charges for every
// transport.
TEST_F(DaemonTest, SimFetchEqualsCodecRoundTrip) {
  RpcHub hub(cluster_, 0.0);
  cluster_.jobTracker().submit(smallJob(), 0.0);
  hadooplog::TtLogParser ttRef;
  hadooplog::DnLogParser dnRef;
  ttRef.startAt(0);
  dnRef.startAt(0);
  std::size_t ttCursor = 0;
  std::size_t dnCursor = 0;
  metrics::SadcSnapshot snap;  // reused, like a collector module's
  std::vector<hadooplog::StateSample> tt;
  std::vector<hadooplog::StateSample> dn;
  syscalls::TraceSecond trace;
  std::size_t nonEmptyRows = 0;
  std::size_t traceEvents = 0;
  for (int t = 1; t <= 40; ++t) {
    engine_.runUntil(t);
    const SimTime now = t;
    for (NodeId node = 1; node <= 3; ++node) {
      Encoder snapEnc;
      encodeSnapshot(snapEnc, cluster_.node(node).sadcCollect());
      Decoder snapDec(snapEnc.bytes());
      const metrics::SadcSnapshot wantSnap = decodeSnapshot(snapDec);
      std::size_t bytes = 0;
      ASSERT_TRUE(collectOne(hub, {CollectKind::kSadc, node, now, kNoTime},
                             &snap, bytes));
      EXPECT_EQ(bytes, snapEnc.size());
      expectSameSnapshot(snap, wantSnap);

      Encoder traceEnc;
      encodeTrace(traceEnc, cluster_.node(node).lastSyscallTrace());
      Decoder traceDec(traceEnc.bytes());
      const syscalls::TraceSecond wantTrace = decodeTrace(traceDec);
      ASSERT_TRUE(collectOne(hub, {CollectKind::kStrace, node, now, kNoTime},
                             &trace, bytes));
      EXPECT_EQ(bytes, 4 + wantTrace.size());
      EXPECT_EQ(trace, wantTrace);
      traceEvents += trace.size();
    }

    hadoop::Node& host = cluster_.node(1);
    ttRef.consume(host.ttLog().linesFrom(ttCursor));
    ttCursor = host.ttLog().lineCount();
    dnRef.consume(host.dnLog().linesFrom(dnCursor));
    dnCursor = host.dnLog().lineCount();
    for (const bool isTt : {true, false}) {
      Encoder enc;
      encodeSamples(enc, isTt ? ttRef.poll(now) : dnRef.poll(now));
      Decoder dec(enc.bytes());
      const std::vector<hadooplog::StateSample> want = decodeSamples(dec);
      std::vector<hadooplog::StateSample>& got = isTt ? tt : dn;
      std::size_t bytes = 0;
      ASSERT_TRUE(collectOne(
          hub, {isTt ? CollectKind::kTt : CollectKind::kDn, 1, now, now},
          &got, bytes));
      EXPECT_EQ(bytes, enc.size());
      expectSameSamples(got, want);
      nonEmptyRows += got.size();
    }
  }
  EXPECT_GT(nonEmptyRows, 50u);
  EXPECT_GT(traceEvents, 0u);
}

// Call accounting lives in the client: the hub's own fault-free client
// charges its registry once per call.
TEST_F(DaemonTest, SadcChannelTracksTraffic) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(3.0);
  Fetched<metrics::SadcSnapshot> got;
  for (int i = 0; i < 10; ++i) {
    hub.client().fetchSadc(1, 3.0, got);
    ASSERT_TRUE(got.ok);
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
  std::vector<hadooplog::StateSample> rows;
  for (int t = 1; t <= 120; ++t) {
    engine_.runUntil(t);
    std::size_t bytes = 0;
    hub.hadoopLog(1).fetch(CollectKind::kTt, t, rows, bytes);
    for (const auto& s : rows) {
      EXPECT_EQ(s.counts.size(), hadooplog::kTtStateCount);
      ++ttSamples;
    }
    hub.hadoopLog(1).fetch(CollectKind::kDn, t, rows, bytes);
    for (const auto& s : rows) {
      EXPECT_EQ(s.counts.size(), hadooplog::kDnStateCount);
      ++dnSamples;
    }
  }
  // One sample per second, minus the finalization lag.
  EXPECT_GE(ttSamples, 115u);
  EXPECT_GE(dnSamples, 115u);
}

// discardAll frees the held lines without renumbering, and a read of a
// freed line fails loudly instead of returning a shortened tail.
TEST(LogBufferDiscard, KeepsNumberingAndRefusesFreedLines) {
  hadooplog::LogBuffer buf;
  buf.append("a");
  buf.append("b");
  buf.discardAll();
  EXPECT_EQ(buf.lineCount(), 2u);
  EXPECT_TRUE(buf.linesFrom(2).empty());
  buf.append("c");
  ASSERT_EQ(buf.linesFrom(2).size(), 1u);
  EXPECT_EQ(buf.linesFrom(2)[0], "c");
  EXPECT_EQ(buf.line(2), "c");
  EXPECT_THROW(buf.linesFrom(0), std::logic_error);
  EXPECT_THROW(buf.linesFrom(1), std::logic_error);
  EXPECT_THROW(buf.line(1), std::out_of_range);
  EXPECT_THROW(buf.line(3), std::out_of_range);
}

// The daemon is each log's one tail reader and frees what it parsed: a
// polled node holds only the lines of the last second, while line
// numbers keep counting every line ever written.
TEST_F(DaemonTest, LogBuffersStayBoundedWhileTheDaemonPolls) {
  RpcHub hub(cluster_, 0.0);
  for (int j = 0; j < 4; ++j) cluster_.jobTracker().submit(smallJob(), 0.0);
  hadoop::Node& host = cluster_.node(1);
  const hadooplog::LogBuffer* logs[] = {&host.ttLog(), &host.dnLog()};
  std::size_t cursor[] = {0, 0};  // each log's line count after a poll
  std::vector<hadooplog::StateSample> rows;
  std::size_t maxHeld = 0;
  for (int t = 1; t <= 240; ++t) {
    engine_.runUntil(t);
    for (int k = 0; k < 2; ++k) {
      // Only the lines since the last poll are held.
      const std::size_t held = logs[k]->linesFrom(cursor[k]).size();
      EXPECT_EQ(held, logs[k]->lineCount() - cursor[k]);
      maxHeld = std::max(maxHeld, held);
    }
    std::size_t bytes = 0;
    hub.hadoopLog(1).fetch(CollectKind::kTt, t, rows, bytes);
    hub.hadoopLog(1).fetch(CollectKind::kDn, t, rows, bytes);
    for (int k = 0; k < 2; ++k) {
      cursor[k] = logs[k]->lineCount();
      EXPECT_TRUE(logs[k]->linesFrom(cursor[k]).empty());
    }
  }
  // A line the daemon consumed is gone: reading it again throws.
  ASSERT_GT(cursor[0], 0u);
  EXPECT_THROW(logs[0]->linesFrom(cursor[0] - 1), std::logic_error);
  // Every line stays numbered; at most one second's lines are held.
  const std::size_t written =
      host.ttLog().lineCount() + host.dnLog().lineCount();
  EXPECT_GT(written, 60u);
  EXPECT_LT(maxHeld * 4, written) << maxHeld;
}

TEST_F(DaemonTest, HadoopLogSamplesAreContiguousSeconds) {
  RpcHub hub(cluster_, 0.0);
  cluster_.jobTracker().submit(smallJob(), 0.0);
  long expected = 0;
  std::vector<hadooplog::StateSample> rows;
  for (int t = 1; t <= 60; ++t) {
    engine_.runUntil(t);
    std::size_t bytes = 0;
    hub.hadoopLog(2).fetch(CollectKind::kTt, t, rows, bytes);
    for (const auto& s : rows) {
      EXPECT_EQ(s.second, expected);
      ++expected;
    }
  }
  EXPECT_GT(expected, 50);
}

TEST_F(DaemonTest, DaemonsMeterTheirCpu) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(5.0);
  // The hub meters each collect() batch, per daemon kind.
  Fetched<metrics::SadcSnapshot> snap;
  Fetched<std::vector<hadooplog::StateSample>> rows;
  for (int i = 0; i < 100; ++i) {
    hub.client().fetchSadc(1, 5.0, snap);
    hub.client().fetchTt(1, 5.0, 5.0, rows);
  }
  EXPECT_GT(hub.sadcCpuSeconds(), 0.0);
  EXPECT_GT(hub.hadoopLogCpuSeconds(), 0.0);
  EXPECT_EQ(hub.straceCpuSeconds(), 0.0);
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
  Fetched<std::vector<hadooplog::StateSample>> rows;
  hub.client().fetchTt(1, 10.0, 10.0, rows);
  ASSERT_TRUE(rows.ok);
  hub.client().fetchDn(1, 10.0, 10.0, rows);
  ASSERT_TRUE(rows.ok);
  EXPECT_EQ(hub.transports().channel("hl-tt-tcp").calls(), 1);
  EXPECT_EQ(hub.transports().channel("hl-dn-tcp").calls(), 1);
}

}  // namespace
}  // namespace asdf::rpc
