#include "metrics/os_model.h"

#include <gtest/gtest.h>

#include "common/stats.h"
#include "metrics/catalog.h"
#include "metrics/sadc.h"

namespace asdf::metrics {
namespace {

NodeOsModel makeModel(double noise = 0.02) {
  NodeOsModel::Params params;
  params.noiseFraction = noise;
  return NodeOsModel(params, Rng(42));
}

// One tickInto() into a fresh snapshot.
SadcSnapshot tickOnce(NodeOsModel& model, SimTime now,
                      const NodeActivity& activity) {
  SadcSnapshot snap;
  model.tickInto(now, activity, snap);
  return snap;
}

TEST(Catalog, PaperMetricCounts) {
  // Section 3.5: "64 node-level metrics, 18 network-interface-specific
  // metrics and 19 process-level metrics".
  EXPECT_EQ(nodeMetricNames().size(), 64u);
  EXPECT_EQ(nicMetricNames().size(), 18u);
  EXPECT_EQ(processMetricNames().size(), 19u);
}

TEST(Catalog, NamesAreUniqueAndIndexable) {
  for (std::size_t i = 0; i < kNodeMetricCount; ++i) {
    EXPECT_EQ(nodeMetricIndex(nodeMetricNames()[i]), static_cast<int>(i));
  }
  for (std::size_t i = 0; i < kNicMetricCount; ++i) {
    EXPECT_EQ(nicMetricIndex(nicMetricNames()[i]), static_cast<int>(i));
  }
  for (std::size_t i = 0; i < kProcessMetricCount; ++i) {
    EXPECT_EQ(processMetricIndex(processMetricNames()[i]),
              static_cast<int>(i));
  }
  EXPECT_EQ(nodeMetricIndex("no_such_metric"), -1);
}

TEST(OsModel, SnapshotHasFullDimensions) {
  NodeOsModel model = makeModel();
  NodeActivity idle;
  idle.memUsedBytes = 1.0e9;
  const SadcSnapshot snap = tickOnce(model, 1.0, idle);
  EXPECT_EQ(snap.node.size(), kNodeMetricCount);
  EXPECT_EQ(snap.nic.size(), kNicMetricCount);
  EXPECT_DOUBLE_EQ(snap.time, 1.0);
}

TEST(OsModel, CpuPercentagesSumToHundred) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity busy;
  busy.cpuUserCores = 2.0;
  busy.cpuSystemCores = 0.5;
  busy.memUsedBytes = 2.0e9;
  const SadcSnapshot snap = tickOnce(model, 1.0, busy);
  const auto& m = snap.node;
  const double total = m[kCpuUserPct] + m[kCpuNicePct] + m[kCpuSystemPct] +
                       m[kCpuIowaitPct] + m[kCpuStealPct] + m[kCpuIdlePct];
  EXPECT_NEAR(total, 100.0, 1.0);
}

TEST(OsModel, CpuLoadRaisesUserPct) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity idle;
  idle.memUsedBytes = 1.0e9;
  const double idleUser = tickOnce(model, 1.0, idle).node[kCpuUserPct];
  NodeActivity busy = idle;
  busy.cpuUserCores = 3.0;
  const double busyUser = tickOnce(model, 2.0, busy).node[kCpuUserPct];
  EXPECT_GT(busyUser, idleUser + 50.0);
}

TEST(OsModel, CpuSaturatesAtCapacity) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity over;
  over.cpuUserCores = 100.0;  // way past 4 cores
  over.memUsedBytes = 1.0e9;
  const auto& m = tickOnce(model, 1.0, over).node;
  EXPECT_LE(m[kCpuUserPct], 100.0 + 1e-9);
  EXPECT_GE(m[kCpuIdlePct], 0.0);
}

TEST(OsModel, DiskTrafficDrivesIoCounters) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity io;
  io.diskReadBytes = 10.0e6;
  io.diskWriteBytes = 20.0e6;
  io.memUsedBytes = 1.0e9;
  const auto& m = tickOnce(model, 1.0, io).node;
  EXPECT_NEAR(m[kIoReadBlocksPerSec], 10.0e6 / 512.0, 1.0);
  EXPECT_NEAR(m[kIoWriteBlocksPerSec], 20.0e6 / 512.0, 1.0);
  EXPECT_GT(m[kIoTps], 50.0);
  EXPECT_NEAR(m[kPgPgInPerSec], 10.0e6 / 1024.0, 1.0);
}

TEST(OsModel, NetworkTrafficDrivesNicCounters) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity net;
  net.netRxBytes = 3.0e6;
  net.netTxBytes = 1.5e6;
  net.memUsedBytes = 1.0e9;
  const SadcSnapshot snap = tickOnce(model, 1.0, net);
  EXPECT_NEAR(snap.nic[kNicRxKbPerSec], 3.0e6 / 1024.0, 30.0);
  EXPECT_NEAR(snap.nic[kNicTxKbPerSec], 1.5e6 / 1024.0, 15.0);
  EXPECT_GT(snap.node[kNetRxPktTotalPerSec], 1000.0);
}

TEST(OsModel, DropsShowOnNic) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity lossy;
  lossy.netRxDropPkts = 500.0;
  lossy.memUsedBytes = 1.0e9;
  const SadcSnapshot snap = tickOnce(model, 1.0, lossy);
  EXPECT_GT(snap.nic[kNicRxDropPerSec], 400.0);
}

TEST(OsModel, MemoryAccounting) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity a;
  a.memUsedBytes = 4.0e9;
  const auto& m = tickOnce(model, 1.0, a).node;
  EXPECT_GT(m[kMemUsedKb], 4.0e9 / 1024.0 * 0.95);
  EXPECT_GT(m[kMemUsedPct], 50.0);
  EXPECT_LT(m[kMemUsedPct], 100.0);
}

TEST(OsModel, LoadAverageIsEwma) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity busy;
  busy.runnableTasks = 8;
  busy.memUsedBytes = 1.0e9;
  double prev = 0.0;
  for (int t = 1; t <= 120; ++t) {
    const auto& m = tickOnce(model, t, busy).node;
    EXPECT_GE(m[kLoadAvg1] + 1e-6, prev * 0.9);  // rising, roughly
    prev = m[kLoadAvg1];
  }
  // After 2 minutes of 8 runnable tasks, ldavg-1 should be well on its
  // way towards 8 and ldavg-15 should lag it.
  NodeActivity snapA = busy;
  const auto& m = tickOnce(model, 121, snapA).node;
  EXPECT_GT(m[kLoadAvg1], 4.0);
  EXPECT_LT(m[kLoadAvg15], m[kLoadAvg1]);
}

TEST(OsModel, NoiseGivesNonzeroVarianceOnQuietMetrics) {
  NodeOsModel model = makeModel();
  NodeActivity idle;
  idle.memUsedBytes = 1.0e9;
  RunningStats iowait;
  RunningStats tps;
  for (int t = 1; t <= 200; ++t) {
    const auto& m = tickOnce(model, t, idle).node;
    iowait.add(m[kCpuIowaitPct]);
    tps.add(m[kIoTps]);
  }
  // The analyses' log/sigma scaling needs nonzero fault-free sigmas.
  EXPECT_GT(iowait.stddev(), 0.0);
  EXPECT_GT(tps.stddev(), 0.0);
}

TEST(OsModel, TracksProcessMetrics) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity a;
  a.memUsedBytes = 1.0e9;
  ProcessActivity p;
  p.name = "TaskTracker";
  p.cpuUserCores = 0.5;
  p.rssBytes = 2.0e8;
  p.threads = 30;
  p.fds = 100;
  a.processes.push_back(p);
  const SadcSnapshot snap = tickOnce(model, 1.0, a);
  ASSERT_EQ(snap.processes.size(), 1u);
  EXPECT_EQ(snap.processes[0].first, "TaskTracker");
  const auto& v = snap.processes[0].second;
  ASSERT_EQ(v.size(), kProcessMetricCount);
  EXPECT_NEAR(v[kProcCpuUserPct], 50.0, 1.0);
  EXPECT_NEAR(v[kProcRssKb], 2.0e8 / 1024.0, 1.0);
  EXPECT_EQ(v[kProcThreads], 30.0);
}

TEST(OsModel, ProcessCpuTicksAccumulate) {
  NodeOsModel model = makeModel(0.0);
  NodeActivity a;
  a.memUsedBytes = 1.0e9;
  ProcessActivity p;
  p.name = "DataNode";
  p.cpuUserCores = 0.1;
  a.processes.push_back(p);
  double prev = -1.0;
  for (int t = 1; t <= 10; ++t) {
    const SadcSnapshot snap = tickOnce(model, t, a);
    const double ticks = snap.processes[0].second[kProcUserTimeTicks];
    EXPECT_GT(ticks, prev);
    prev = ticks;
  }
  EXPECT_NEAR(prev, 10 * 0.1 * 100.0, 1.0);
}

TEST(Sadc, FlattenConcatenatesNodeAndNic) {
  NodeOsModel model = makeModel();
  NodeActivity a;
  a.memUsedBytes = 1.0e9;
  const SadcSnapshot snap = tickOnce(model, 1.0, a);
  const auto flat = flattenNodeVector(snap);
  ASSERT_EQ(flat.size(), kFlatNodeVectorSize);
  EXPECT_DOUBLE_EQ(flat[0], snap.node[0]);
  EXPECT_DOUBLE_EQ(flat[kNodeMetricCount], snap.nic[0]);
}

TEST(Sadc, FlattenedNamesAlign) {
  const auto names = flattenedNodeVectorNames();
  ASSERT_EQ(names.size(), kFlatNodeVectorSize);
  EXPECT_EQ(names[0], "cpu_user_pct");
  EXPECT_EQ(names[kNodeMetricCount], "eth0.rxpck_per_s");
}

}  // namespace
}  // namespace asdf::metrics
