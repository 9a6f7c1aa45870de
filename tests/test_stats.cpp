#include "common/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace asdf {
namespace {

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({-5.0}), -5.0);
}

TEST(Variance, Basics) {
  EXPECT_DOUBLE_EQ(variance({2.0, 2.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance({1.0, 3.0}), 1.0);  // population variance
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({7.0}), 0.0);
}

TEST(Stddev, MatchesSqrtVariance) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0};
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(variance(xs)));
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Median, RobustToOutlier) {
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0, 1.0e9}), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
}

TEST(Percentile, ClampsOutOfRangeP) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 200.0), 2.0);
}

TEST(Distances, L1AndL2) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(l1DistanceN(a.data(), b.data(), a.size()), 3.0);
  EXPECT_DOUBLE_EQ(l2Distance(a, b), std::sqrt(5.0));
  EXPECT_DOUBLE_EQ(l1DistanceN(a.data(), a.data(), a.size()), 0.0);
  EXPECT_DOUBLE_EQ(l2Distance(a, a), 0.0);
}

TEST(ComponentwiseMedian, PerDimension) {
  const double r0[] = {1.0, 10.0};
  const double r1[] = {2.0, 20.0};
  const double r2[] = {3.0, 0.0};
  const double* const rows[] = {r0, r1, r2};
  std::vector<double> med(2, -1.0);
  std::vector<double> column;
  componentwiseMedianInto(rows, 3, 2, med.data(), column);
  ASSERT_EQ(med.size(), 2u);
  EXPECT_DOUBLE_EQ(med[0], 2.0);
  EXPECT_DOUBLE_EQ(med[1], 10.0);
}

TEST(RunningStats, MatchesBatch) {
  Rng rng(3);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(5.0, 2.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-6);
  EXPECT_EQ(rs.count(), 1000u);
}

TEST(RunningStats, ClearResets) {
  RunningStats rs;
  rs.add(5.0);
  rs.clear();
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(SlidingWindow, FillsThenSlides) {
  SlidingWindow w(3);
  w.push(1.0);
  EXPECT_FALSE(w.full());
  w.push(2.0);
  w.push(3.0);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.push(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_EQ(w.size(), 3u);
}

TEST(SlidingWindow, ValuesInInsertionOrder) {
  SlidingWindow w(3);
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) w.push(x);
  const auto vals = w.values();
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_DOUBLE_EQ(vals[0], 3.0);
  EXPECT_DOUBLE_EQ(vals[1], 4.0);
  EXPECT_DOUBLE_EQ(vals[2], 5.0);
}

TEST(SlidingWindow, ClearEmpties) {
  SlidingWindow w(2);
  w.push(1.0);
  w.push(2.0);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.full());
  w.push(9.0);
  EXPECT_DOUBLE_EQ(w.mean(), 9.0);
}

// meanVariance() is the one-pass form of mean() and variance(): equal
// bit for bit, on empty, partly filled and wrapped rings.
TEST(SlidingWindow, MeanVarianceMatchesSeparateCalls) {
  Rng rng(17);
  for (const std::size_t capacity : {1u, 2u, 60u}) {
    SlidingWindow w(capacity);
    for (std::size_t i = 0; i <= 3 * capacity; ++i) {
      double m = -1.0;
      double var = -1.0;
      w.meanVariance(m, var);
      EXPECT_EQ(m, w.mean()) << capacity << " @" << i;
      EXPECT_EQ(var, w.variance()) << capacity << " @" << i;
      EXPECT_EQ(std::sqrt(var), w.stddev()) << capacity << " @" << i;
      w.push(rng.uniform(-1.0e3, 1.0e3));
    }
  }
}

// Property: the sliding window's statistics always equal batch
// statistics over its current contents, for random push sequences.
class SlidingWindowProperty : public ::testing::TestWithParam<int> {};

TEST_P(SlidingWindowProperty, MatchesBatchStatistics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto capacity =
      static_cast<std::size_t>(rng.uniformInt(1, 20));
  SlidingWindow w(capacity);
  for (int i = 0; i < 200; ++i) {
    w.push(rng.uniform(-100.0, 100.0));
    const auto vals = w.values();
    EXPECT_NEAR(w.mean(), mean(vals), 1e-9);
    EXPECT_NEAR(w.variance(), variance(vals), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, SlidingWindowProperty,
                         ::testing::Range(0, 8));

// Property: median is invariant under permutation and bounded by
// min/max.
class MedianProperty : public ::testing::TestWithParam<int> {};

TEST_P(MedianProperty, BoundedAndStable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
  std::vector<double> xs;
  const long n = rng.uniformInt(1, 50);
  for (long i = 0; i < n; ++i) xs.push_back(rng.uniform(-1e6, 1e6));
  const double m = median(xs);
  double lo = xs[0];
  double hi = xs[0];
  for (double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_GE(m, lo);
  EXPECT_LE(m, hi);
  std::vector<double> reversed(xs.rbegin(), xs.rend());
  EXPECT_DOUBLE_EQ(median(reversed), m);
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, MedianProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace asdf
