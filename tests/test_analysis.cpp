#include <cmath>

#include <gtest/gtest.h>

#include "analysis/bbmodel.h"
#include "analysis/kmeans.h"
#include "analysis/peercompare.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"

namespace asdf::analysis {
namespace {

std::vector<std::vector<double>> twoBlobs(Rng& rng, int perBlob) {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < perBlob; ++i) {
    points.push_back({rng.gaussian(0.0, 0.5), rng.gaussian(0.0, 0.5)});
    points.push_back({rng.gaussian(10.0, 0.5), rng.gaussian(10.0, 0.5)});
  }
  return points;
}

TEST(KMeans, SeparatesTwoBlobs) {
  Rng rng(5);
  const auto points = twoBlobs(rng, 100);
  KMeansOptions options;
  options.k = 2;
  const KMeansResult result = kmeans(points, options, rng);
  ASSERT_EQ(result.centroids.size(), 2u);
  // One centroid near (0,0), the other near (10,10).
  const double a = result.centroids[0][0] + result.centroids[0][1];
  const double b = result.centroids[1][0] + result.centroids[1][1];
  EXPECT_NEAR(std::min(a, b), 0.0, 1.0);
  EXPECT_NEAR(std::max(a, b), 20.0, 1.0);
  // Points alternate blobs, so assignments must alternate too.
  EXPECT_NE(result.assignment[0], result.assignment[1]);
  EXPECT_EQ(result.assignment[0], result.assignment[2]);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(6);
  const auto points = twoBlobs(rng, 50);
  KMeansOptions k1;
  k1.k = 1;
  KMeansOptions k4;
  k4.k = 4;
  Rng r1(1);
  Rng r2(1);
  EXPECT_LT(kmeans(points, k4, r2).inertia, kmeans(points, k1, r1).inertia);
}

TEST(KMeans, SinglePointSingleCluster) {
  Rng rng(7);
  const KMeansResult result =
      kmeans({{3.0, 4.0}}, KMeansOptions{1, 10, 1e-6}, rng);
  ASSERT_EQ(result.centroids.size(), 1u);
  EXPECT_DOUBLE_EQ(result.centroids[0][0], 3.0);
  EXPECT_DOUBLE_EQ(result.inertia, 0.0);
}

TEST(KMeans, KLargerThanDistinctPointsIsSafe) {
  Rng rng(8);
  const KMeansResult result = kmeans(
      {{1.0}, {1.0}, {2.0}}, KMeansOptions{5, 10, 1e-6}, rng);
  EXPECT_EQ(result.centroids.size(), 5u);
  // All assignments valid.
  for (int a : result.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 5);
  }
}

TEST(KMeans, NearestCentroidPicksClosest) {
  const std::vector<std::vector<double>> centroids = {{0.0}, {10.0}, {20.0}};
  EXPECT_EQ(nearestCentroid(centroids, {1.0}), 0u);
  EXPECT_EQ(nearestCentroid(centroids, {14.0}), 1u);
  EXPECT_EQ(nearestCentroid(centroids, {100.0}), 2u);
}

TEST(KMeans, NearestCentroidsOrdered) {
  const std::vector<std::vector<double>> centroids = {{0.0}, {10.0}, {20.0}};
  const auto order = nearestCentroids(centroids, {12.0}, 3);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

class KMeansProperty : public ::testing::TestWithParam<int> {};

TEST_P(KMeansProperty, AssignmentsAreNearestAfterConvergence) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 3 + 11);
  std::vector<std::vector<double>> points;
  const long n = rng.uniformInt(10, 80);
  for (long i = 0; i < n; ++i) {
    points.push_back({rng.uniform(-5, 5), rng.uniform(-5, 5),
                      rng.uniform(-5, 5)});
  }
  KMeansOptions options;
  options.k = static_cast<int>(rng.uniformInt(1, 6));
  const KMeansResult result = kmeans(points, options, rng);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(result.assignment[i]),
              nearestCentroid(result.centroids, points[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, KMeansProperty, ::testing::Range(0, 8));

TEST(BlackBoxModel, TransformAppliesLogAndSigma) {
  BlackBoxModel model;
  model.sigmas = {2.0, 1.0};
  model.centroids = {{0.0, 0.0}};
  const auto t = model.transform({std::exp(2.0) - 1.0, 0.0});
  EXPECT_NEAR(t[0], 1.0, 1e-9);  // log1p(e^2-1)/2 = 1
  EXPECT_NEAR(t[1], 0.0, 1e-9);
}

TEST(BlackBoxModel, NegativeRawValuesClampToZero) {
  BlackBoxModel model;
  model.sigmas = {1.0};
  model.centroids = {{0.0}};
  EXPECT_DOUBLE_EQ(model.transform({-5.0})[0], 0.0);
}

TEST(BlackBoxModel, TrainingLearnsSigmasAndStates) {
  Rng rng(9);
  std::vector<std::vector<double>> training;
  for (int i = 0; i < 400; ++i) {
    // Two workload regimes: idle (low) and busy (high); second metric
    // constant (sigma 0 -> replaced by 1).
    const bool busy = i % 2 == 0;
    training.push_back({busy ? rng.uniform(900, 1100) : rng.uniform(0, 5),
                        7.0});
  }
  const BlackBoxModel model = trainBlackBoxModel(training, 2, rng);
  EXPECT_EQ(model.states(), 2u);
  EXPECT_DOUBLE_EQ(model.sigmas[1], 1.0);  // constant metric guarded
  EXPECT_GT(model.sigmas[0], 0.5);
  // Classification separates the regimes.
  EXPECT_NE(model.classify({1000.0, 7.0}), model.classify({1.0, 7.0}));
}

// trainBlackBoxModel takes one log1p per training value; its model must
// be, bit for bit, the one of the two-pass recipe it replaced: sigmas
// from a first log1p pass, then transformInto per row.
TEST(BlackBoxModel, TrainingMatchesTwoPassReference) {
  Rng corpusRng(2024);
  std::vector<std::vector<double>> training;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row;
    for (int d = 0; d < 12; ++d) {
      // Mixed scales, some negative values (clamped) and one constant.
      row.push_back(d == 5 ? 3.0 : corpusRng.uniform(-2.0, 10.0 * (d + 1)));
    }
    training.push_back(row);
  }

  BlackBoxModel reference;
  {
    const std::size_t dims = training.front().size();
    std::vector<RunningStats> stats(dims);
    for (const auto& row : training) {
      for (std::size_t d = 0; d < dims; ++d) {
        stats[d].add(std::log1p(std::max(0.0, row[d])));
      }
    }
    reference.sigmas.assign(dims, 1.0);
    for (std::size_t d = 0; d < dims; ++d) {
      const double s = stats[d].stddev();
      reference.sigmas[d] = s > 1e-12 ? s : 1.0;
    }
    Matrix transformed;
    std::vector<double> out(dims);
    for (const auto& row : training) {
      reference.transformInto(row.data(), row.size(), out.data());
      transformed.push_back(out);
    }
    KMeansOptions options;
    options.k = 6;
    Rng rng(5);
    reference.centroids =
        std::move(kmeans(transformed, options, rng).centroids);
  }

  Rng rng(5);
  const BlackBoxModel model = trainBlackBoxModel(training, 6, rng);
  EXPECT_EQ(serializeModel(model), serializeModel(reference));
}

TEST(BlackBoxModel, SerializeDeserializeRoundTrip) {
  BlackBoxModel model;
  model.sigmas = {1.5, 2.5};
  model.centroids = {{0.25, -1.75}, {3.5, 4.5}};
  const BlackBoxModel back = deserializeModel(serializeModel(model));
  ASSERT_EQ(back.sigmas.size(), 2u);
  EXPECT_DOUBLE_EQ(back.sigmas[1], 2.5);
  ASSERT_EQ(back.centroids.size(), 2u);
  EXPECT_DOUBLE_EQ(back.centroids[1][0], 3.5);
}

TEST(BlackBoxModel, DeserializeRejectsGarbage) {
  EXPECT_THROW(deserializeModel(""), ConfigError);
  EXPECT_THROW(deserializeModel("sigmas,1.0\ncentroid,1.0,2.0\n"),
               ConfigError);  // dimension mismatch
  EXPECT_THROW(deserializeModel("bogus,1.0\n"), ConfigError);
  EXPECT_THROW(deserializeModel("sigmas,abc\ncentroid,1\n"), ConfigError);
}

// stateHistogramInto() over a window, into a fresh histogram.
std::vector<double> histogramOf(const std::vector<double>& stateIndices,
                                std::size_t numStates) {
  std::vector<double> hist(numStates, -1.0);
  stateHistogramInto(stateIndices.data(), stateIndices.size(), hist.data(),
                     numStates);
  return hist;
}

TEST(StateHistogram, CountsIndices) {
  const auto hist = histogramOf({0.0, 1.0, 1.0, 2.0, 1.0}, 3);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_DOUBLE_EQ(hist[0], 1.0);
  EXPECT_DOUBLE_EQ(hist[1], 3.0);
  EXPECT_DOUBLE_EQ(hist[2], 1.0);
}

TEST(StateHistogram, IgnoresOutOfRangeIndices) {
  const auto hist = histogramOf({-1.0, 5.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(hist[0], 0.0);
  EXPECT_DOUBLE_EQ(hist[1], 1.0);
}

TEST(BlackBoxCompare, FlagsOutlierAgainstMedian) {
  const std::vector<std::vector<double>> hists = {
      {50.0, 10.0}, {48.0, 12.0}, {10.0, 50.0}, {52.0, 8.0}, {49.0, 11.0}};
  const auto result = blackBoxCompare(hists, 60.0);
  ASSERT_EQ(result.flags.size(), 5u);
  EXPECT_DOUBLE_EQ(result.flags[2], 1.0);
  for (std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_DOUBLE_EQ(result.flags[i], 0.0) << i;
  }
  EXPECT_GT(result.scores[2], result.scores[0]);
}

TEST(BlackBoxCompare, NoFlagsWhenAllSimilar) {
  const std::vector<std::vector<double>> hists = {
      {50.0, 10.0}, {49.0, 11.0}, {51.0, 9.0}};
  const auto result = blackBoxCompare(hists, 10.0);
  for (double f : result.flags) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(BlackBoxCompare, ScoresEnableThresholdSweep) {
  // flags at threshold T must equal scores > T for every T.
  const std::vector<std::vector<double>> hists = {
      {50.0, 10.0}, {40.0, 20.0}, {10.0, 50.0}, {55.0, 5.0}};
  for (double threshold : {0.0, 10.0, 30.0, 60.0, 100.0}) {
    const auto result = blackBoxCompare(hists, threshold);
    for (std::size_t i = 0; i < hists.size(); ++i) {
      EXPECT_EQ(result.flags[i] > 0.5, result.scores[i] > threshold);
    }
  }
}

TEST(WhiteBoxCompare, FlagsDeviationAboveFloor) {
  const std::vector<std::vector<double>> means = {
      {2.0}, {0.5}, {0.4}, {0.6}};
  const std::vector<std::vector<double>> devs = {
      {0.1}, {0.1}, {0.1}, {0.1}};
  const auto result = whiteBoxCompare(means, devs, 3.0);
  EXPECT_DOUBLE_EQ(result.flags[0], 1.0);  // diff 1.45 > max(1, 0.3)
  EXPECT_DOUBLE_EQ(result.flags[1], 0.0);
}

TEST(WhiteBoxCompare, UnitFloorSuppressesSmallDeviations) {
  // Deviation below 1 never flags, even with zero sigma (the paper's
  // explicit design point).
  const std::vector<std::vector<double>> means = {
      {0.9}, {0.0}, {0.0}, {0.0}};
  const std::vector<std::vector<double>> devs = {
      {0.0}, {0.0}, {0.0}, {0.0}};
  const auto result = whiteBoxCompare(means, devs, 0.0);
  EXPECT_DOUBLE_EQ(result.flags[0], 0.0);
}

TEST(WhiteBoxCompare, SigmaMedianScalesThreshold) {
  // diff = 2; with sigma_median = 1 and k = 3 the threshold is 3, so
  // no flag; with k = 1 it is max(1,1) = 1, so flag.
  const std::vector<std::vector<double>> means = {
      {2.0}, {0.0}, {0.0}, {0.0}, {0.0}};
  const std::vector<std::vector<double>> devs = {
      {1.0}, {1.0}, {1.0}, {1.0}, {1.0}};
  EXPECT_DOUBLE_EQ(whiteBoxCompare(means, devs, 3.0).flags[0], 0.0);
  EXPECT_DOUBLE_EQ(whiteBoxCompare(means, devs, 1.0).flags[0], 1.0);
}

TEST(WhiteBoxCompare, ZeroSigmaWithLargeDiffAlwaysFlags) {
  const std::vector<std::vector<double>> means = {
      {5.0}, {0.0}, {0.0}};
  const std::vector<std::vector<double>> devs = {
      {0.0}, {0.0}, {0.0}};
  const auto result = whiteBoxCompare(means, devs, 1000.0);
  EXPECT_DOUBLE_EQ(result.flags[0], 1.0);
  EXPECT_DOUBLE_EQ(result.scores[0], kWhiteBoxAlwaysFlagged);
}

// Property: flags at parameter k exactly match scores > k, so offline
// k sweeps (Figure 6b) are faithful to online decisions.
class WhiteBoxSweepProperty : public ::testing::TestWithParam<int> {};

TEST_P(WhiteBoxSweepProperty, CriticalKMatchesDirectEvaluation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 23 + 1);
  const std::size_t nodes = 5;
  const std::size_t dims = 4;
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<std::vector<double>> means(nodes);
    std::vector<std::vector<double>> devs(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      for (std::size_t d = 0; d < dims; ++d) {
        means[i].push_back(rng.uniform(0.0, 4.0));
        devs[i].push_back(rng.uniform(0.0, 1.0));
      }
    }
    const auto reference = whiteBoxCompare(means, devs, 0.0);
    for (double k : {0.5, 1.0, 2.0, 3.0, 5.0}) {
      const auto direct = whiteBoxCompare(means, devs, k);
      for (std::size_t i = 0; i < nodes; ++i) {
        EXPECT_EQ(direct.flags[i] > 0.5, reference.scores[i] > k)
            << "node " << i << " k " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, WhiteBoxSweepProperty,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace asdf::analysis
