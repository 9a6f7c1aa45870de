#include "analysis/mad.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace asdf::analysis {
namespace {

TEST(MadCompare, FlagsObviousOutlier) {
  const std::vector<double> scores = {5.0, 6.0, 5.5, 40.0, 6.5};
  const auto result = madCompare(scores, 6.0);
  ASSERT_EQ(result.flags.size(), 5u);
  EXPECT_DOUBLE_EQ(result.flags[3], 1.0);
  for (std::size_t i : {0u, 1u, 2u, 4u}) {
    EXPECT_DOUBLE_EQ(result.flags[i], 0.0) << i;
  }
}

TEST(MadCompare, AllEqualScoresFlagNothing) {
  const std::vector<double> scores = {3.0, 3.0, 3.0, 3.0};
  const auto result = madCompare(scores, 1.0);
  for (double f : result.flags) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(MadCompare, MinMadGuardsDegenerateSpread) {
  // All-but-one identical: MAD would be 0; minMad keeps the threshold
  // meaningful so a tiny wobble is not flagged.
  const std::vector<double> scores = {3.0, 3.0, 3.0, 3.4};
  const auto result = madCompare(scores, 2.0, /*minMad=*/1.0);
  EXPECT_DOUBLE_EQ(result.flags[3], 0.0);
  // A genuinely large deviation still is.
  const auto big = madCompare({3.0, 3.0, 3.0, 13.0}, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(big.flags[3], 1.0);
}

TEST(MadCompare, ScoresAreSweepable) {
  const std::vector<double> scores = {1.0, 2.0, 3.0, 20.0, 2.5};
  const auto reference = madCompare(scores, 0.0);
  for (double k : {0.5, 2.0, 6.0, 15.0}) {
    const auto direct = madCompare(scores, k);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(direct.flags[i] > 0.5, reference.scores[i] > k);
    }
  }
}

TEST(MadCompare, OnlyUpperTailFlags) {
  // Peer comparison fingerpoints *anomalously distant* nodes; a node
  // whose distance is unusually LOW is not a culprit.
  const std::vector<double> scores = {10.0, 10.5, 9.5, 0.1, 10.2};
  const auto result = madCompare(scores, 3.0);
  EXPECT_DOUBLE_EQ(result.flags[3], 0.0);
}

// The black-box StateVector pipeline under the MAD rule: the L1 scores
// blackBoxCompare() records per node, re-decided by madCompare() (as
// bench_ablation_analysis does over recorded windows).
PeerComparisonResult madOverBlackBoxScores(
    const std::vector<std::vector<double>>& histograms, double k) {
  return madCompare(blackBoxCompare(histograms, 0.0).scores, k);
}

TEST(BlackBoxMadCompare, MatchesFixedThresholdOnClearCases) {
  const std::vector<std::vector<double>> hists = {
      {50.0, 10.0}, {49.0, 11.0}, {10.0, 50.0}, {51.0, 9.0}, {50.0, 10.0}};
  const auto mad = madOverBlackBoxScores(hists, 6.0);
  const auto fixed = blackBoxCompare(hists, 60.0);
  ASSERT_EQ(mad.flags.size(), fixed.flags.size());
  for (std::size_t i = 0; i < mad.flags.size(); ++i) {
    EXPECT_DOUBLE_EQ(mad.flags[i], fixed.flags[i]) << i;
  }
}

TEST(BlackBoxMadCompare, SelfCalibratesAcrossScales) {
  // The same relative outlier at 10x the magnitude: the fixed
  // threshold's verdict changes, the MAD rule's does not.
  const std::vector<std::vector<double>> small = {
      {5.0, 1.0}, {5.2, 0.8}, {1.0, 5.0}, {4.9, 1.1}};
  const std::vector<std::vector<double>> large = {
      {50.0, 10.0}, {52.0, 8.0}, {10.0, 50.0}, {49.0, 11.0}};
  const auto madSmall = madOverBlackBoxScores(small, 4.0);
  const auto madLarge = madOverBlackBoxScores(large, 4.0);
  EXPECT_DOUBLE_EQ(madSmall.flags[2], 1.0);
  EXPECT_DOUBLE_EQ(madLarge.flags[2], 1.0);
}

TEST(MadCompare, EmptyInputSafe) {
  const auto result = madCompare({}, 3.0);
  EXPECT_TRUE(result.flags.empty());
  EXPECT_TRUE(result.scores.empty());
}

class MadProperty : public ::testing::TestWithParam<int> {};

TEST_P(MadProperty, AtMostMinorityFlaggedOnRandomNoise) {
  // On i.i.d. noise with a sane k, the robust rule must not flag the
  // majority (that would invert the fault-minority assumption).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 9);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<double> scores;
    const long n = rng.uniformInt(4, 30);
    for (long i = 0; i < n; ++i) scores.push_back(rng.uniform(0.0, 10.0));
    const auto result = madCompare(scores, 6.0);
    long flagged = 0;
    for (double f : result.flags) flagged += f > 0.5 ? 1 : 0;
    EXPECT_LE(flagged, n / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, MadProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace asdf::analysis
