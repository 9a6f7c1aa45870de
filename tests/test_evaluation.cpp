#include "analysis/evaluation.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace asdf::analysis {
namespace {

AlarmRecord record(SimTime t, std::vector<double> flags,
                   std::vector<double> scores = {}) {
  AlarmRecord r;
  r.time = t;
  r.flags = std::move(flags);
  r.scores = std::move(scores);
  return r;
}

TEST(GroundTruth, ActiveWindow) {
  GroundTruth truth;
  truth.slaveIndex = 2;
  truth.faultStart = 100.0;
  truth.faultEnd = 200.0;
  EXPECT_FALSE(truth.activeAt(99.0));
  EXPECT_TRUE(truth.activeAt(100.0));
  EXPECT_TRUE(truth.activeAt(200.0));
  EXPECT_FALSE(truth.activeAt(201.0));
}

TEST(GroundTruth, OpenEndedFault) {
  GroundTruth truth;
  truth.slaveIndex = 0;
  truth.faultStart = 50.0;
  EXPECT_TRUE(truth.activeAt(1.0e9));
}

TEST(GroundTruth, FaultFreeNeverActive) {
  GroundTruth truth;  // slaveIndex -1
  EXPECT_FALSE(truth.activeAt(100.0));
}

TEST(Evaluate, PerfectDetector) {
  GroundTruth truth;
  truth.slaveIndex = 1;
  truth.faultStart = 10.0;
  AlarmSeries series = {
      record(5.0, {0, 0, 0}),
      record(15.0, {0, 1, 0}),
      record(25.0, {0, 1, 0}),
  };
  const EvalResult r = evaluate(series, truth);
  EXPECT_EQ(r.tp, 2);
  EXPECT_EQ(r.fn, 0);
  EXPECT_EQ(r.fp, 0);
  EXPECT_EQ(r.tn, 7);
  EXPECT_DOUBLE_EQ(r.balancedAccuracyPct(), 100.0);
  EXPECT_DOUBLE_EQ(r.falsePositiveRatePct(), 0.0);
}

TEST(Evaluate, BlindDetectorScoresFiftyPercent) {
  GroundTruth truth;
  truth.slaveIndex = 0;
  truth.faultStart = 0.0;
  AlarmSeries series = {record(1.0, {0, 0}), record(2.0, {0, 0})};
  const EvalResult r = evaluate(series, truth);
  EXPECT_DOUBLE_EQ(r.balancedAccuracyPct(), 50.0);
}

TEST(Evaluate, InvertedDetectorScoresZero) {
  // PerfectDetector's series with every flag inverted: each node is
  // flagged in every window except the culprit while the fault is active.
  GroundTruth truth;
  truth.slaveIndex = 1;
  truth.faultStart = 10.0;
  AlarmSeries series = {
      record(5.0, {1, 1, 1}),
      record(15.0, {1, 0, 1}),
      record(25.0, {1, 0, 1}),
  };
  const EvalResult r = evaluate(series, truth);
  EXPECT_EQ(r.tp, 0);
  EXPECT_EQ(r.fn, 2);
  EXPECT_EQ(r.fp, 7);
  EXPECT_EQ(r.tn, 0);
  EXPECT_DOUBLE_EQ(r.balancedAccuracyPct(), 0.0);
}

TEST(Evaluate, RandomDetectorScoresAboutFifty) {
  // A detector that ignores its input flags each (window, node) with
  // probability p: TPR ~ p and TNR ~ 1 - p, so balanced accuracy ~ 50
  // whatever p is.
  GroundTruth truth;
  truth.slaveIndex = 3;
  truth.faultStart = 500.0;
  for (double p : {0.2, 0.7}) {
    Rng rng(17);
    AlarmSeries series;
    for (int w = 0; w < 2000; ++w) {
      std::vector<double> flags(10);
      for (double& f : flags) f = rng.bernoulli(p) ? 1.0 : 0.0;
      series.push_back(record(static_cast<double>(w), std::move(flags)));
    }
    const EvalResult r = evaluate(series, truth);
    EXPECT_EQ(r.tp + r.fn, 1500) << "p=" << p;
    EXPECT_NEAR(r.truePositiveRate(), p, 0.05) << "p=" << p;
    EXPECT_NEAR(r.balancedAccuracyPct(), 50.0, 3.0) << "p=" << p;
  }
}

TEST(Evaluate, WrongNodeIsBothFnAndFp) {
  GroundTruth truth;
  truth.slaveIndex = 0;
  truth.faultStart = 0.0;
  AlarmSeries series = {record(1.0, {0, 1})};
  const EvalResult r = evaluate(series, truth);
  EXPECT_EQ(r.fn, 1);
  EXPECT_EQ(r.fp, 1);
  EXPECT_EQ(r.tp, 0);
  EXPECT_EQ(r.tn, 0);
}

TEST(Evaluate, FaultFreeFalsePositiveRate) {
  GroundTruth truth;  // no fault
  AlarmSeries series = {
      record(1.0, {0, 0, 0, 1}),
      record(2.0, {0, 0, 0, 0}),
  };
  const EvalResult r = evaluate(series, truth);
  EXPECT_EQ(r.fp, 1);
  EXPECT_EQ(r.tn, 7);
  EXPECT_DOUBLE_EQ(r.falsePositiveRatePct(), 12.5);
  EXPECT_DOUBLE_EQ(flaggedFractionPct(series), 12.5);
}

TEST(Latency, FirstCorrectAlarmAfterInjection) {
  GroundTruth truth;
  truth.slaveIndex = 1;
  truth.faultStart = 100.0;
  AlarmSeries series = {
      record(50.0, {0, 1}),   // pre-fault alarms don't count
      record(110.0, {0, 0}),
      record(160.0, {0, 1}),
  };
  EXPECT_DOUBLE_EQ(fingerpointingLatency(series, truth), 60.0);
}

TEST(Latency, NeverDetectedIsNegative) {
  GroundTruth truth;
  truth.slaveIndex = 0;
  truth.faultStart = 10.0;
  AlarmSeries series = {record(20.0, {0, 1})};
  EXPECT_LT(fingerpointingLatency(series, truth), 0.0);
}

TEST(Latency, FaultFreeIsNegative) {
  GroundTruth truth;
  EXPECT_LT(fingerpointingLatency({record(1.0, {1})}, truth), 0.0);
}

TEST(ApplyThreshold, RethresholdsFromScores) {
  AlarmSeries series = {record(1.0, {0, 0}, {10.0, 70.0})};
  const AlarmSeries at60 = applyThreshold(series, 60.0);
  EXPECT_DOUBLE_EQ(at60[0].flags[0], 0.0);
  EXPECT_DOUBLE_EQ(at60[0].flags[1], 1.0);
  const AlarmSeries at5 = applyThreshold(series, 5.0);
  EXPECT_DOUBLE_EQ(at5[0].flags[0], 1.0);
}

TEST(ApplyThreshold, MonotoneInThreshold) {
  AlarmSeries series = {record(1.0, {}, {10.0, 35.0, 70.0, 95.0})};
  long prev = 100;
  for (double threshold : {0.0, 20.0, 50.0, 80.0, 120.0}) {
    const auto out = applyThreshold(series, threshold);
    long flagged = 0;
    for (double f : out[0].flags) flagged += f > 0.5 ? 1 : 0;
    EXPECT_LE(flagged, prev);
    prev = flagged;
  }
}

TEST(RequireConsecutive, SuppressesShortStreaks) {
  AlarmSeries series = {
      record(1.0, {1}), record(2.0, {0}), record(3.0, {1}),
      record(4.0, {1}), record(5.0, {1}), record(6.0, {0}),
  };
  const AlarmSeries filtered = requireConsecutive(series, 3);
  EXPECT_DOUBLE_EQ(filtered[0].flags[0], 0.0);
  EXPECT_DOUBLE_EQ(filtered[2].flags[0], 0.0);
  EXPECT_DOUBLE_EQ(filtered[3].flags[0], 0.0);
  EXPECT_DOUBLE_EQ(filtered[4].flags[0], 1.0);  // 3rd consecutive
  EXPECT_DOUBLE_EQ(filtered[5].flags[0], 0.0);
}

TEST(RequireConsecutive, OneIsIdentity) {
  AlarmSeries series = {record(1.0, {1, 0}), record(2.0, {0, 1})};
  const AlarmSeries filtered = requireConsecutive(series, 1);
  EXPECT_DOUBLE_EQ(filtered[0].flags[0], 1.0);
  EXPECT_DOUBLE_EQ(filtered[1].flags[1], 1.0);
}

TEST(RequireConsecutive, PerNodeStreaks) {
  AlarmSeries series = {
      record(1.0, {1, 1}), record(2.0, {1, 0}), record(3.0, {1, 1})};
  const AlarmSeries filtered = requireConsecutive(series, 2);
  EXPECT_DOUBLE_EQ(filtered[1].flags[0], 1.0);  // node 0: 2 in a row
  EXPECT_DOUBLE_EQ(filtered[2].flags[1], 0.0);  // node 1's streak broke
}

TEST(CombineUnion, MatchesWindowsWithinSlack) {
  AlarmSeries a = {record(10.0, {1, 0}), record(20.0, {0, 0})};
  AlarmSeries b = {record(11.0, {0, 1}), record(21.0, {0, 1})};
  const AlarmSeries combined = combineUnion(a, b, 5.0);
  ASSERT_EQ(combined.size(), 2u);
  EXPECT_DOUBLE_EQ(combined[0].flags[0], 1.0);
  EXPECT_DOUBLE_EQ(combined[0].flags[1], 1.0);
  EXPECT_DOUBLE_EQ(combined[1].flags[1], 1.0);
}

TEST(CombineUnion, UnmatchedWindowsSurvive) {
  AlarmSeries a = {record(10.0, {1})};
  AlarmSeries b = {record(100.0, {1})};
  const AlarmSeries combined = combineUnion(a, b, 5.0);
  ASSERT_EQ(combined.size(), 2u);
  EXPECT_DOUBLE_EQ(combined[0].time, 10.0);
  EXPECT_DOUBLE_EQ(combined[1].time, 100.0);
}

TEST(CombineUnion, EmptySeries) {
  AlarmSeries a = {record(10.0, {1})};
  EXPECT_EQ(combineUnion(a, {}).size(), 1u);
  EXPECT_EQ(combineUnion({}, a).size(), 1u);
  EXPECT_TRUE(combineUnion({}, {}).empty());
}

TEST(EvalResult, DegenerateCountsAreSafe) {
  EvalResult r;  // all zero
  EXPECT_DOUBLE_EQ(r.truePositiveRate(), 1.0);
  EXPECT_DOUBLE_EQ(r.trueNegativeRate(), 1.0);
  EXPECT_DOUBLE_EQ(r.falsePositiveRatePct(), 0.0);
}

// Correlated scenarios name several culprits at once; an empty
// `culprits` vector keeps the legacy single-culprit semantics exactly.
TEST(GroundTruth, MultiCulpritMembershipAndActivation) {
  GroundTruth truth;
  truth.culprits = {1, 3};
  truth.faultStart = 100.0;
  EXPECT_TRUE(truth.anyCulprit());
  EXPECT_TRUE(truth.isCulprit(1));
  EXPECT_TRUE(truth.isCulprit(3));
  EXPECT_FALSE(truth.isCulprit(2));
  EXPECT_FALSE(truth.isCulprit(-1));
  // activeAt works without a slaveIndex when culprits are named.
  EXPECT_EQ(truth.slaveIndex, -1);
  EXPECT_TRUE(truth.activeAt(150.0));
  EXPECT_FALSE(truth.activeAt(50.0));
}

TEST(GroundTruth, EmptyCulpritsFallBackToSlaveIndex) {
  GroundTruth truth;
  truth.slaveIndex = 2;
  EXPECT_TRUE(truth.isCulprit(2));
  EXPECT_FALSE(truth.isCulprit(0));
  truth.slaveIndex = -1;
  EXPECT_FALSE(truth.isCulprit(-1));  // fault-free: nobody is a culprit
}

TEST(Evaluate, MultiCulpritCountsEachCulpritNode) {
  // Two culprits {0, 2} of three nodes, one active window: flagging
  // exactly the culprits is 2 TP + 1 TN.
  GroundTruth truth;
  truth.culprits = {0, 2};
  truth.faultStart = 0.0;
  const AlarmSeries series = {record(10.0, {1, 0, 1})};
  const EvalResult r = evaluate(series, truth);
  EXPECT_EQ(r.tp, 2);
  EXPECT_EQ(r.tn, 1);
  EXPECT_EQ(r.fp, 0);
  EXPECT_EQ(r.fn, 0);
  // Flagging only an innocent node is 2 FN + 1 FP.
  const EvalResult miss = evaluate({record(10.0, {0, 1, 0})}, truth);
  EXPECT_EQ(miss.fn, 2);
  EXPECT_EQ(miss.fp, 1);
  EXPECT_EQ(miss.tp, 0);
  EXPECT_EQ(miss.tn, 0);
}

TEST(Latency, AnyCulpritFlagCountsForMultiCulpritTruth) {
  GroundTruth truth;
  truth.culprits = {1, 2};
  truth.faultStart = 100.0;
  // Window at 130 flags only culprit 2 — that is a localization.
  const AlarmSeries series = {record(90.0, {0, 1, 0}),
                              record(130.0, {0, 0, 1}),
                              record(160.0, {0, 1, 0})};
  EXPECT_DOUBLE_EQ(fingerpointingLatency(series, truth), 30.0);
}

}  // namespace
}  // namespace asdf::analysis
