// Equivalence of the cheap text and noise paths with the code they
// replace. Each fast path must give the same bits as its reference:
//
//   * the digit-by-digit log timestamp writer and the fixed-width
//     reader against the snprintf / sscanf originals on every text the
//     writer produces (the reader refuses anything else);
//   * the to_chars log line writers against their printf formats,
//     rounding edges included;
//   * Rng::skipGaussian against a twin generator that computes and
//     discards the skipped values;
//   * per-process sadc rows turned off against rows on: node and NIC
//     values, and therefore the node's noise stream, do not move.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/types.h"
#include "hadoop/cluster.h"
#include "hadooplog/log_buffer.h"
#include "hadooplog/writer.h"
#include "metrics/catalog.h"
#include "metrics/os_model.h"
#include "sim/engine.h"
#include "workload/gridmix.h"

namespace asdf {
namespace {

// ---------------------------------------------------------------------------
// References: the printf-based timestamp code the fast paths replaced.

constexpr int kDaysPerMonth[12] = {31, 29, 31, 30, 31, 30,
                                   31, 31, 30, 31, 30, 31};

std::string refFormat(SimTime t) {
  if (t < 0) t = 0;
  const auto totalMillis = static_cast<long long>(std::llround(t * 1000.0));
  long long millis = totalMillis % 1000;
  long long totalSeconds = totalMillis / 1000;
  long long seconds = totalSeconds % 60;
  long long totalMinutes = totalSeconds / 60;
  long long minutes = totalMinutes % 60;
  long long totalHours = totalMinutes / 60 + 14;
  long long hours = totalHours % 24;
  long long days = totalHours / 24;
  int day = 15 + static_cast<int>(days);
  int month = 4;
  int year = 2008;
  while (day > kDaysPerMonth[month - 1]) {
    day -= kDaysPerMonth[month - 1];
    ++month;
    if (month > 12) {
      month = 1;
      ++year;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02lld:%02lld:%02lld,%03lld",
                year, month, day, hours, minutes, seconds, millis);
  return buf;
}

SimTime refParse(const std::string& text) {
  int year = 0, month = 0, day = 0, hour = 0, minute = 0, second = 0,
      milli = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d,%d", &year, &month, &day,
                  &hour, &minute, &second, &milli) != 7) {
    return kNoTime;
  }
  if (year < 2008 || month < 1 || month > 12 || day < 1) return kNoTime;
  long long days = 0;
  int y = 2008, m = 4, d = 15;
  while (y < year || m < month || d < day) {
    ++d;
    ++days;
    if (d > kDaysPerMonth[m - 1]) {
      d = 1;
      ++m;
      if (m > 12) {
        m = 1;
        ++y;
      }
    }
    if (days > 400000) return kNoTime;
  }
  const long long totalSeconds =
      ((days * 24 + hour - 14) * 60 + minute) * 60 + second;
  if (totalSeconds < 0) return kNoTime;
  return static_cast<SimTime>(totalSeconds) + milli / 1000.0;
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Formats `t` both ways and reads the text back both ways.
void expectTimestampEquivalent(SimTime t) {
  const std::string want = refFormat(t);
  const std::string got = formatLogTimestamp(t);
  ASSERT_EQ(got, want) << "t=" << t;
  EXPECT_TRUE(sameBits(parseLogTimestamp(got), refParse(want))) << got;
}

TEST(LogTimestampEquivalence, SampledFourHundredDaySpan) {
  Rng rng(20260418);
  for (int i = 0; i < 20000; ++i) {
    expectTimestampEquivalent(rng.uniform(0.0, 400.0 * 86400.0));
  }
  // Every whole second of the first simulated hour (the run scale).
  for (int s = 0; s <= 3600; ++s) expectTimestampEquivalent(s);
}

TEST(LogTimestampEquivalence, EveryMillisecondOfSeveralSeconds) {
  for (const double base : {0.0, 59.0, 3599.0, 35999.0, 86399.0}) {
    for (int ms = 0; ms < 2000; ++ms) {
      expectTimestampEquivalent(base + ms / 1000.0);
      // Off-grid times exercise llround's half-millisecond rounding.
      expectTimestampEquivalent(base + (ms + 0.5) / 1000.0);
    }
  }
}

TEST(LogTimestampEquivalence, MonthAndYearBoundaries) {
  // Walk day by day across every month end of the epoch year and the
  // year after, one second and one millisecond on each side.
  for (int day = 0; day < 730; ++day) {
    const double midnight = 10.0 * 3600.0 + day * 86400.0;  // 00:00 local
    for (const double dt : {-1.0, -0.001, 0.0, 0.001, 1.0}) {
      expectTimestampEquivalent(midnight + dt);
    }
  }
  // Negative times clamp to the epoch.
  expectTimestampEquivalent(-5.0);
}

// The writer only ever produces the fixed layout; the reader refuses
// any other shape, even where sscanf's lenient "%d" would read one.
TEST(LogTimestampEquivalence, MalformedAndPaddedAreRefused) {
  const std::vector<std::string> odd = {
      "",
      "2008-04-15",
      "not a timestamp",
      " 2008-04-15 14:00:01,324",   // leading blank
      "2008-04-15 14:00:01,3245",   // a longer millisecond field
      "2008-4-15 14:00:01,324",     // unpadded month
      "2008-04-15  14:00:01,324",   // doubled separator
      "2008-04-15 14:0:01,324",
      "+2008-04-15 14:00:01,324",
      "2008-04-15 14:00:01.324",    // wrong millisecond separator
      "2008-04-15 14:00:01,-24",
      "02008-04-15 14:00:01,324",
      "2008-04-15 14:00:01,32",
      "2008-04-1a 14:00:01,324",
      "2008-04-15T14:00:01,324",
  };
  for (const std::string& text : odd) {
    EXPECT_EQ(parseLogTimestamp(text), kNoTime) << "'" << text << "'";
  }
  // Fixed-layout text at the calendar's edges: the value sscanf gives.
  const std::vector<std::string> shaped = {
      "2008-13-15 14:00:00,000", "2007-04-15 14:00:00,000",
      "2008-00-15 14:00:00,000", "2008-04-00 14:00:00,000",
      "2008-04-15 13:59:59,999", "2008-04-31 14:00:00,000",
      "2009-02-30 23:59:59,999", "9999-12-31 23:59:59,999",
      "2008-04-15 14:00:00,000 INFO x: y",
  };
  for (const std::string& text : shaped) {
    EXPECT_TRUE(sameBits(parseLogTimestamp(text), refParse(text))) << text;
  }
}

// ---------------------------------------------------------------------------
// Log line writers against their printf formats.

const std::string kTt = " org.apache.hadoop.mapred.TaskTracker: ";
const std::string kDn = " org.apache.hadoop.dfs.DataNode: ";

TEST(WritersEquivalence, EveryLineMatchesItsPrintfFormat) {
  hadooplog::LogBuffer buf;
  hadooplog::TtLogWriter tt(&buf);
  hadooplog::DnLogWriter dn(&buf);
  std::vector<std::string> want;
  const std::string id = "task_0001_m_000096_0";
  const std::string rid = "task_0012_r_000003_1";
  Rng rng(7);
  // Percentages on and around %.2f's rounding edges, plus random ones.
  std::vector<double> fractions = {0.0,     0.12345, 0.99995, 0.00005,
                                   0.005,   0.125,   0.995,   1.0,
                                   0.33,    0.5,     0.0000499, 0.1234999};
  for (int i = 0; i < 2000; ++i) fractions.push_back(rng.uniform());
  // Sizes on and around %.0f's edges: x.5 ties, huge values.
  std::vector<double> sizes = {0.0,    0.5,          1.5,       2.5,
                               12.345, 99.995,       0.005,     8388608.0,
                               67108863.5, 67108864.5, 1e15 + 0.5, 1e22,
                               4503599627370495.5};
  for (int i = 0; i < 2000; ++i) sizes.push_back(rng.uniform(0.0, 7.0e7));
  const std::vector<long> blocks = {0, 1, 4523, 2147483647L, 2147483648L,
                                    9223372036854775807L, -17};
  double t = 12.3456;
  for (const double f : fractions) {
    t += 0.7071;
    tt.mapProgress(t, id, f);
    want.push_back(refFormat(t) + " INFO" + kTt +
                   strformat("%s %.2f%% hdfs://input", id.c_str(),
                             f * 100.0));
    tt.reduceProgress(t, rid, f, "sort", 7, 24);
    want.push_back(refFormat(t) + " INFO" + kTt +
                   strformat("%s %.2f%% reduce > %s (%d of %d)", rid.c_str(),
                             f * 100.0, "sort", 7, 24));
  }
  for (const double sz : sizes) {
    t += 1.5;
    dn.receivedBlock(t, 4524, sz, "10.250.0.2");
    want.push_back(refFormat(t) + " INFO" + kDn +
                   strformat("Received block blk_%ld of size %.0f from /%s",
                             4524L, sz, "10.250.0.2"));
  }
  for (const long b : blocks) {
    t += 0.001;
    dn.servingBlock(t, b, "10.250.0.7");
    want.push_back(refFormat(t) + " INFO" + kDn +
                   strformat("Serving block blk_%ld to /%s", b, "10.250.0.7"));
    dn.servedBlock(t, b, "10.250.0.7");
    want.push_back(refFormat(t) + " INFO" + kDn +
                   strformat("Served block blk_%ld to /%s", b, "10.250.0.7"));
    dn.receivingBlock(t, b, "10.250.0.2", "10.250.0.3");
    want.push_back(
        refFormat(t) + " INFO" + kDn +
        strformat("Receiving block blk_%ld src: /%s:50010 dest: /%s:50010",
                  b, "10.250.0.2", "10.250.0.3"));
    dn.deletingBlock(t, b);
    want.push_back(
        refFormat(t) + " INFO" + kDn +
        strformat("Deleting block blk_%ld file /hadoop/dfs/data/current/blk_%ld",
                  b, b));
  }
  t += 3.0;
  tt.launchTask(t, id);
  want.push_back(refFormat(t) + " INFO" + kTt + "LaunchTaskAction: " + id);
  tt.taskDone(t, id);
  want.push_back(refFormat(t) + " INFO" + kTt + "Task " + id + " is done.");
  tt.taskFailed(t, rid, "boom");
  want.push_back(refFormat(t) + " WARN" + kTt + "Task " + rid +
                 " failed: boom");
  tt.killTask(t, rid);
  want.push_back(refFormat(t) + " INFO" + kTt + "KillTaskAction: " + rid);
  tt.copyFailed(t, rid, id);
  want.push_back(refFormat(t) + " WARN" + kTt + rid + " copy failed: " + id +
                 " java.io.IOException: failed to rename map output");
  tt.reduceProgress(t, rid, 0.0, "copy", 0, 100000);
  want.push_back(refFormat(t) + " INFO" + kTt +
                 strformat("%s %.2f%% reduce > %s (%d of %d)", rid.c_str(),
                           0.0, "copy", 0, 100000));

  ASSERT_EQ(buf.lineCount(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(buf.line(i), want[i]) << "line " << i;
  }
}

// ---------------------------------------------------------------------------
// Rng::skipGaussian against a twin that computes and discards.

TEST(RngSkipGaussian, InterleavingsMatchATwinThatComputes) {
  Rng script(99);
  for (int trial = 0; trial < 50; ++trial) {
    Rng skipper(1000 + trial);
    Rng twin(1000 + trial);
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = script.next() % 8;
      if (op < 3) {
        skipper.skipGaussian();
        twin.gaussian();
      } else if (op < 7) {
        const double a = skipper.gaussian();
        const double b = twin.gaussian();
        ASSERT_TRUE(sameBits(a, b))
            << "trial " << trial << " step " << step << ": " << a << " vs "
            << b;
      } else {
        // Plain uniforms between Gaussian draws leave a pending half
        // pending in both generators.
        ASSERT_EQ(skipper.uniform(), twin.uniform());
      }
    }
    EXPECT_EQ(skipper.next(), twin.next()) << "trial " << trial;
  }
}

TEST(RngSkipGaussian, RunsOfSkipsAdvanceInPairs) {
  Rng skipper(5);
  Rng twin(5);
  for (int n = 1; n <= 9; ++n) {
    for (int i = 0; i < n; ++i) {
      skipper.skipGaussian();
      twin.gaussian();
    }
    EXPECT_TRUE(sameBits(skipper.gaussian(), twin.gaussian())) << n;
  }
  EXPECT_EQ(skipper.next(), twin.next());
}

// ---------------------------------------------------------------------------
// Per-process rows off: same stream, same node/NIC values, NaN rows.

metrics::NodeActivity busyActivity(int tick) {
  metrics::NodeActivity a;
  a.cpuUserCores = 0.5 + 0.25 * (tick % 7);
  a.cpuSystemCores = 0.1 * (tick % 3);
  a.cpuIowaitCores = tick % 5 == 0 ? 0.4 : 0.0;
  a.diskReadBytes = (tick % 4) * 3.0e6;
  a.diskWriteBytes = (tick % 6) * 1.0e6;
  a.netRxBytes = (tick % 2) * 4.0e6;
  a.netTxBytes = 2.0e6;
  a.memUsedBytes = 3.0e9 + tick * 1.0e7;
  a.runnableTasks = tick % 4;
  a.forks = tick % 3;
  for (const char* name : {"TaskTracker", "DataNode", "cpuhog"}) {
    metrics::ProcessActivity p;
    p.name = name;
    // Some ticks leave a process idle, so noisy() takes its zero path.
    p.cpuUserCores = (tick % 3 == 0) ? 0.0 : 0.02 * (tick % 5);
    p.cpuSystemCores = 0.005 * (tick % 2);
    p.readBytes = (tick % 4) * 1.0e5;
    p.writeBytes = (tick % 3) * 2.0e5;
    p.rssBytes = tick % 5 == 0 ? 0.0 : 1.5e8;
    a.processes.push_back(p);
  }
  return a;
}

TEST(OsModelProcessRows, OffDrawsTheSameStreamAndReadsNaN) {
  metrics::NodeOsModel on({}, Rng(31));
  metrics::NodeOsModel off({}, Rng(31));
  off.setProcessRows(false);
  metrics::SadcSnapshot a;
  metrics::SadcSnapshot b;
  for (int tick = 1; tick <= 300; ++tick) {
    const metrics::NodeActivity activity = busyActivity(tick);
    on.tickInto(tick, activity, a);
    off.tickInto(tick, activity, b);
    ASSERT_TRUE(sameBits(a.node, b.node)) << "tick " << tick;
    ASSERT_TRUE(sameBits(a.nic, b.nic)) << "tick " << tick;
    ASSERT_EQ(a.processes.size(), b.processes.size());
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
      EXPECT_EQ(a.processes[i].first, b.processes[i].first);
      ASSERT_EQ(b.processes[i].second.size(), metrics::kProcessMetricCount);
      for (double v : b.processes[i].second) EXPECT_TRUE(std::isnan(v));
    }
  }
}

TEST(OsModelProcessRows, TurnedBackOnRowsMatchRowsThatWereAlwaysOn) {
  metrics::NodeOsModel on({}, Rng(8));
  metrics::NodeOsModel toggled({}, Rng(8));
  toggled.setProcessRows(false);
  metrics::SadcSnapshot a;
  metrics::SadcSnapshot b;
  for (int tick = 1; tick <= 60; ++tick) {
    if (tick == 40) toggled.setProcessRows(true);
    const metrics::NodeActivity activity = busyActivity(tick);
    on.tickInto(tick, activity, a);
    toggled.tickInto(tick, activity, b);
    ASSERT_TRUE(sameBits(a.node, b.node)) << "tick " << tick;
    if (tick < 40) continue;
    // Cumulative CPU ticks kept counting while the rows were off.
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
      EXPECT_TRUE(sameBits(a.processes[i].second, b.processes[i].second))
          << "tick " << tick << " process " << i;
    }
  }
}

// The whole simulator: a cluster whose rows are off produces the same
// node/NIC snapshots and the same log text, second by second.
TEST(OsModelProcessRows, ClusterOffMatchesClusterOnSecondBySecond) {
  sim::SimEngine engineOn;
  sim::SimEngine engineOff;
  hadoop::HadoopParams params;
  params.slaveCount = 4;
  hadoop::Cluster on(params, 77, engineOn);
  hadoop::Cluster off(params, 77, engineOff);
  off.setProcessRows(false);
  workload::GridMixGenerator gridOn(on, {}, 5);
  workload::GridMixGenerator gridOff(off, {}, 5);
  on.start();
  gridOn.start();
  off.start();
  gridOff.start();
  for (int t = 1; t <= 240; ++t) {
    engineOn.runUntil(t);
    engineOff.runUntil(t);
    for (NodeId n = 0; n <= 4; ++n) {
      const metrics::SadcSnapshot& a = on.node(n).sadcCollect();
      const metrics::SadcSnapshot& b = off.node(n).sadcCollect();
      ASSERT_TRUE(sameBits(a.node, b.node)) << "t " << t << " node " << n;
      ASSERT_TRUE(sameBits(a.nic, b.nic)) << "t " << t << " node " << n;
      ASSERT_EQ(a.processes.size(), b.processes.size());
    }
  }
  for (NodeId n = 1; n <= 4; ++n) {
    ASSERT_EQ(on.node(n).ttLog().lineCount(), off.node(n).ttLog().lineCount());
    for (std::size_t i = 0; i < on.node(n).ttLog().lineCount(); ++i) {
      ASSERT_EQ(on.node(n).ttLog().line(i), off.node(n).ttLog().line(i));
    }
  }
}

}  // namespace
}  // namespace asdf
