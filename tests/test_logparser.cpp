#include "hadooplog/parser.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hadooplog/log_buffer.h"
#include "hadooplog/states.h"
#include "hadooplog/writer.h"

namespace asdf::hadooplog {
namespace {

// Finds the sample for a given second; fails the test when absent.
const StateSample& sampleAt(const std::vector<StateSample>& samples,
                            long second) {
  for (const auto& s : samples) {
    if (s.second == second) return s;
  }
  ADD_FAILURE() << "no sample for second " << second;
  static StateSample empty;
  return empty;
}

double tt(const StateSample& s, TtState state) {
  return s.counts[static_cast<std::size_t>(state)];
}

double dn(const StateSample& s, DnState state) {
  return s.counts[static_cast<std::size_t>(state)];
}

TEST(StateCounter, CountsOverlappingInstances) {
  StateCounter c(1);
  c.entrance(0, 0);
  c.entrance(1, 0);
  c.exit(3, 0);
  const auto samples = c.drain(5);
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_DOUBLE_EQ(samples[0].counts[0], 1.0);  // one open
  EXPECT_DOUBLE_EQ(samples[1].counts[0], 2.0);  // both open
  EXPECT_DOUBLE_EQ(samples[2].counts[0], 2.0);
  // The instance exiting at second 3 was still executing during it.
  EXPECT_DOUBLE_EQ(samples[3].counts[0], 2.0);
  EXPECT_DOUBLE_EQ(samples[4].counts[0], 1.0);
}

TEST(StateCounter, ShortLivedStateStillCounted) {
  // Entrance and exit within the same second must count (the paper's
  // "taking care to include counts of short-lived states").
  StateCounter c(1);
  c.entrance(5, 0);
  c.exit(5, 0);
  const auto samples = c.drain(6);
  EXPECT_DOUBLE_EQ(sampleAt(samples, 5).counts[0], 1.0);
}

TEST(StateCounter, InstantEventsCount) {
  StateCounter c(1);
  c.instant(2, 0);
  c.instant(2, 0);
  c.instant(2, 0);
  const auto samples = c.drain(3);
  EXPECT_DOUBLE_EQ(sampleAt(samples, 2).counts[0], 3.0);
}

TEST(StateCounter, ExitWithoutEntranceIsTolerated) {
  StateCounter c(1);
  c.exit(1, 0);
  c.entrance(2, 0);
  const auto samples = c.drain(3);
  EXPECT_DOUBLE_EQ(sampleAt(samples, 1).counts[0], 0.0);
  EXPECT_DOUBLE_EQ(sampleAt(samples, 2).counts[0], 1.0);
  EXPECT_GE(c.openCount(0), 0.0);
}

TEST(StateCounter, StartAtYieldsZeroRowsForQuietStream) {
  StateCounter c(2);
  c.startAt(10);
  const auto samples = c.drain(13);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].second, 10);
  EXPECT_DOUBLE_EQ(samples[0].counts[0], 0.0);
  EXPECT_DOUBLE_EQ(samples[2].counts[1], 0.0);
}

TEST(StateCounter, LateLinesFoldIntoCurrentBucket) {
  StateCounter c(1);
  c.entrance(5, 0);
  c.entrance(3, 0);  // out of order: folded into second >= 5
  const auto samples = c.drain(6);
  EXPECT_DOUBLE_EQ(sampleAt(samples, 5).counts[0], 2.0);
}

TEST(TtParser, Figure5Scenario) {
  // The exact log lines from the paper's Figure 5: a map launch at
  // 14:23:15 and a reduce launch at 14:23:16 produce state vectors
  // (MapTask=1, ReduceTask=0) then (MapTask=1, ReduceTask=1).
  TtLogParser parser;
  const std::vector<std::string> lines = {
      "2008-04-15 14:23:15,324 INFO org.apache.hadoop.mapred.TaskTracker: "
      "LaunchTaskAction: task_0001_m_000096_0",
      "2008-04-15 14:23:16,375 INFO org.apache.hadoop.mapred.TaskTracker: "
      "LaunchTaskAction: task_0001_r_000003_0",
  };
  parser.consume(lines);
  const long base = 23 * 60 + 15;  // seconds after the 14:00 epoch
  const auto samples = parser.poll(base + 10);
  const auto& first = sampleAt(samples, base);
  EXPECT_DOUBLE_EQ(tt(first, TtState::kMapTask), 1.0);
  EXPECT_DOUBLE_EQ(tt(first, TtState::kReduceTask), 0.0);
  const auto& second = sampleAt(samples, base + 1);
  EXPECT_DOUBLE_EQ(tt(second, TtState::kMapTask), 1.0);
  EXPECT_DOUBLE_EQ(tt(second, TtState::kReduceTask), 1.0);
}

class TtParserFixture : public ::testing::Test {
 protected:
  TtParserFixture() : writer_(&buf_) { parser_.startAt(0); }

  void feedAndPoll(SimTime watermark) {
    parser_.consume(buf_.linesFrom(cursor_));
    cursor_ = buf_.lineCount();
    auto fresh = parser_.poll(watermark);
    samples_.insert(samples_.end(), fresh.begin(), fresh.end());
  }

  LogBuffer buf_;
  TtLogWriter writer_;
  TtLogParser parser_;
  std::vector<StateSample> samples_;
  std::size_t cursor_ = 0;
};

TEST_F(TtParserFixture, MapLifecycle) {
  writer_.launchTask(10.0, "task_0001_m_000001_0");
  writer_.taskDone(25.0, "task_0001_m_000001_0");
  feedAndPoll(30.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 9), TtState::kMapTask), 0.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 10), TtState::kMapTask), 1.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 24), TtState::kMapTask), 1.0);
  // The exit second itself still counts the task as active-at-start.
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 25), TtState::kMapTask), 1.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 26), TtState::kMapTask), 0.0);
  EXPECT_EQ(parser_.openTaskCount(), 0u);
}

TEST_F(TtParserFixture, ReducePhaseTransitions) {
  writer_.launchTask(5.0, "task_0001_r_000001_0");
  writer_.reduceProgress(5.0, "task_0001_r_000001_0", 0.0, "copy", 0, 4);
  writer_.reduceProgress(60.0, "task_0001_r_000001_0", 0.4, "sort", 4, 4);
  writer_.reduceProgress(80.0, "task_0001_r_000001_0", 0.7, "reduce", 4, 4);
  writer_.taskDone(100.0, "task_0001_r_000001_0");
  feedAndPoll(110.0);

  const auto& copying = sampleAt(samples_, 30);
  EXPECT_DOUBLE_EQ(tt(copying, TtState::kReduceTask), 1.0);
  EXPECT_DOUBLE_EQ(tt(copying, TtState::kReduceCopy), 1.0);
  EXPECT_DOUBLE_EQ(tt(copying, TtState::kReduceSort), 0.0);

  const auto& sorting = sampleAt(samples_, 70);
  EXPECT_DOUBLE_EQ(tt(sorting, TtState::kReduceCopy), 0.0);
  EXPECT_DOUBLE_EQ(tt(sorting, TtState::kReduceSort), 1.0);

  const auto& reducing = sampleAt(samples_, 90);
  EXPECT_DOUBLE_EQ(tt(reducing, TtState::kReduceSort), 0.0);
  EXPECT_DOUBLE_EQ(tt(reducing, TtState::kReduceReduce), 1.0);

  const auto& after = sampleAt(samples_, 105);
  EXPECT_DOUBLE_EQ(tt(after, TtState::kReduceTask), 0.0);
  EXPECT_DOUBLE_EQ(tt(after, TtState::kReduceReduce), 0.0);
}

TEST_F(TtParserFixture, RepeatedProgressLinesDoNotDoubleCount) {
  writer_.launchTask(5.0, "task_0001_r_000001_0");
  for (int t = 5; t < 50; t += 5) {
    writer_.reduceProgress(t, "task_0001_r_000001_0", 0.1, "copy", 1, 4);
  }
  feedAndPoll(60.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 30), TtState::kReduceCopy), 1.0);
}

TEST_F(TtParserFixture, KillClosesTaskAndPhase) {
  writer_.launchTask(5.0, "task_0001_r_000001_0");
  writer_.reduceProgress(5.0, "task_0001_r_000001_0", 0.0, "copy", 0, 4);
  writer_.killTask(20.0, "task_0001_r_000001_0");
  feedAndPoll(30.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 25), TtState::kReduceTask), 0.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 25), TtState::kReduceCopy), 0.0);
  EXPECT_EQ(parser_.openTaskCount(), 0u);
}

TEST_F(TtParserFixture, FailClosesTask) {
  writer_.launchTask(5.0, "task_0001_m_000001_0");
  writer_.taskFailed(15.0, "task_0001_m_000001_0", "exception");
  feedAndPoll(20.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 17), TtState::kMapTask), 0.0);
}

TEST_F(TtParserFixture, ProgressForUnknownTaskSynthesizesEntrance) {
  // A monitor attached mid-run sees progress lines for tasks whose
  // launch it missed.
  writer_.reduceProgress(8.0, "task_0002_r_000001_0", 0.5, "copy", 2, 4);
  feedAndPoll(15.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 8), TtState::kReduceTask), 1.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 8), TtState::kReduceCopy), 1.0);
}

TEST_F(TtParserFixture, ConcurrentTasksStack) {
  writer_.launchTask(5.0, "task_0001_m_000001_0");
  writer_.launchTask(6.0, "task_0001_m_000002_0");
  writer_.launchTask(7.0, "task_0001_m_000003_0");
  writer_.taskDone(12.0, "task_0001_m_000002_0");
  feedAndPoll(20.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 8), TtState::kMapTask), 3.0);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 15), TtState::kMapTask), 2.0);
}

TEST_F(TtParserFixture, GarbageLinesIgnoredNotFatal) {
  writer_.launchTask(5.0, "task_0001_m_000001_0");
  buf_.append("complete garbage");
  buf_.append("2008-04-15 14:00:06,000 INFO something.Else: irrelevant");
  feedAndPoll(10.0);
  EXPECT_GE(parser_.ignoredLineCount(), 1u);
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 6), TtState::kMapTask), 1.0);
}

TEST_F(TtParserFixture, LazyPollingDelaysUnfinalizedSeconds) {
  writer_.launchTask(5.0, "task_0001_m_000001_0");
  feedAndPoll(5.5);  // watermark barely past the event
  // Second 5 cannot be final yet (no later line, grace not elapsed).
  for (const auto& s : samples_) EXPECT_LT(s.second, 5);
  feedAndPoll(8.0);  // grace elapsed -> released
  EXPECT_DOUBLE_EQ(tt(sampleAt(samples_, 5), TtState::kMapTask), 1.0);
}

TEST(DnParser, BlockReadLifecycle) {
  LogBuffer buf;
  DnLogWriter writer(&buf);
  DnLogParser parser;
  writer.servingBlock(3.0, 77, "10.250.0.4");
  writer.servedBlock(8.0, 77, "10.250.0.4");
  parser.consume(buf.linesFrom(0));
  const auto samples = parser.poll(12.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 5), DnState::kReadBlock), 1.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 9), DnState::kReadBlock), 0.0);
  EXPECT_EQ(parser.openTransferCount(), 0u);
}

TEST(DnParser, ConcurrentReadsOfSameBlockToDifferentClients) {
  LogBuffer buf;
  DnLogWriter writer(&buf);
  DnLogParser parser;
  writer.servingBlock(1.0, 5, "10.250.0.2");
  writer.servingBlock(1.0, 5, "10.250.0.3");
  writer.servedBlock(4.0, 5, "10.250.0.2");
  parser.consume(buf.linesFrom(0));
  const auto samples = parser.poll(8.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 2), DnState::kReadBlock), 2.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 5), DnState::kReadBlock), 1.0);
}

TEST(DnParser, WriteLifecycleAndDeleteInstant) {
  LogBuffer buf;
  DnLogWriter writer(&buf);
  DnLogParser parser;
  writer.receivingBlock(2.0, 9, "10.250.0.2", "10.250.0.3");
  writer.receivedBlock(6.0, 9, 1.0e7, "10.250.0.2");
  writer.deletingBlock(7.0, 9);
  parser.consume(buf.linesFrom(0));
  const auto samples = parser.poll(10.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 4), DnState::kWriteBlock), 1.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 7), DnState::kWriteBlock), 0.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 7), DnState::kDeleteBlock), 1.0);
  EXPECT_DOUBLE_EQ(dn(sampleAt(samples, 8), DnState::kDeleteBlock), 0.0);
}

// Property: for random event sequences, per-second counts are never
// negative and never exceed the number of open + entered instances.
class ParserProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParserProperty, CountsStayWithinBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  LogBuffer buf;
  TtLogWriter writer(&buf);
  TtLogParser parser;
  parser.startAt(0);

  std::vector<std::string> open;
  int launched = 0;
  double t = 1.0;
  for (int i = 0; i < 300; ++i) {
    t += rng.uniform(0.0, 2.0);
    if (open.empty() || rng.bernoulli(0.55)) {
      const std::string id =
          makeTaskAttemptId(1, rng.bernoulli(0.5), launched++, 0);
      writer.launchTask(t, id);
      open.push_back(id);
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<long>(open.size()) - 1));
      writer.taskDone(t, open[idx]);
      open.erase(open.begin() + static_cast<long>(idx));
    }
  }
  parser.consume(buf.linesFrom(0));
  const auto samples = parser.poll(t + 10.0);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    for (double c : s.counts) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, static_cast<double>(launched));
    }
  }
  EXPECT_EQ(parser.openTaskCount(), open.size());
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, ParserProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace asdf::hadooplog
