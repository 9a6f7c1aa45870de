// The analysis kernels (src/common/simd.h, DESIGN.md §15): their
// blocked summation order is pinned bit for bit against test-local
// references — on every tail residue, on inputs where a left-to-right
// sum rounds differently, and on NaNs, signed zeros and denormals — and
// the white-box max keeps std::max's NaN-dropping and sentinel rules.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/simd.h"
#include "common/stats.h"

namespace asdf {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

/// Bitwise double equality: distinguishes -0.0 from 0.0 and treats two
/// NaNs with the same payload as equal — exactly the "byte-identical
/// alarms" standard.
bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The blocked reduction contract, written out independently of the
/// kernels: four lanes over the blocked prefix, combined as
/// (lane0 + lane1) + (lane2 + lane3), then the tail in order.
template <typename Term>
double blockedSum(std::size_t n, Term term) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t blocked = n - n % 4;
  for (std::size_t i = 0; i < blocked; ++i) lane[i % 4] += term(i);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (std::size_t i = blocked; i < n; ++i) sum += term(i);
  return sum;
}

template <typename Term>
double sequentialSum(std::size_t n, Term term) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += term(i);
  return sum;
}

double blockedSq(const std::vector<double>& a, const std::vector<double>& b) {
  return blockedSum(a.size(), [&](std::size_t i) {
    const double d = a[i] - b[i];
    return d * d;
  });
}

double blockedL1(const std::vector<double>& a, const std::vector<double>& b) {
  return blockedSum(a.size(),
                    [&](std::size_t i) { return std::fabs(a[i] - b[i]); });
}

void fillDeterministic(std::vector<double>& v, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (double& x : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const double u =
        static_cast<double>((s >> 11) & ((1ull << 40) - 1)) / (1ull << 40);
    x = (u - 0.5) * 1000.0;
  }
}

TEST(SimdKernels, FollowTheBlockedSummationOrder) {
  // Squares {1, 1e-16 x4}: left to right, each 1e-16 is under half an
  // ulp of 1.0 and vanishes; blocked, lanes 2 and 3 pair up first and
  // their 2e-16 survives as one ulp.
  const std::vector<double> a = {1.0, 1e-8, 1e-8, 1e-8, 1e-8};
  const std::vector<double> zero(a.size(), 0.0);
  std::vector<double> squares(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) squares[i] = a[i] * a[i];
  const double sequential = sequentialSum(
      squares.size(), [&](std::size_t i) { return squares[i]; });
  ASSERT_FALSE(sameBits(sequential, blockedSq(a, zero)));
  EXPECT_TRUE(sameBits(blockedSq(a, zero),
                       simd::sqDistance(a.data(), zero.data(), a.size())));
  // The same terms as absolute differences.
  ASSERT_FALSE(sameBits(sequential, blockedL1(squares, zero)));
  EXPECT_TRUE(sameBits(
      blockedL1(squares, zero),
      simd::l1Distance(squares.data(), zero.data(), squares.size())));

  // Every tail residue, on inputs with no exact sum.
  for (std::size_t n = 1; n <= 67; ++n) {
    std::vector<double> x(n), y(n);
    fillDeterministic(x, n * 3 + 1);
    fillDeterministic(y, n * 5 + 2);
    EXPECT_TRUE(
        sameBits(blockedSq(x, y), simd::sqDistance(x.data(), y.data(), n)))
        << "sqDistance n=" << n;
    EXPECT_TRUE(
        sameBits(blockedL1(x, y), simd::l1Distance(x.data(), y.data(), n)))
        << "l1Distance n=" << n;
  }
}

TEST(SimdKernels, SpecialValuesMatchScalarBitForBit) {
  // NaN, +-inf, -0.0, denormals, and huge/tiny magnitudes, scattered
  // so they land in different lanes and in the tail.
  const std::vector<double> a = {kNan,  1.0,   -0.0, kDenormal, 1e308,
                                 -1e308, 0.0,  kInf, -kInf,     2.5,
                                 kNan,  -2.5,  1e-300};
  const std::vector<double> b = {1.0,  kNan,  0.0,  -kDenormal, 1e308,
                                 1e308, -0.0, kInf, kInf,       2.5,
                                 kNan, 7.75,  -1e-300};
  const std::size_t n = a.size();
  EXPECT_TRUE(
      sameBits(blockedSq(a, b), simd::sqDistance(a.data(), b.data(), n)));
  EXPECT_TRUE(
      sameBits(blockedL1(a, b), simd::l1Distance(a.data(), b.data(), n)));
  // Finite lanes only: the NaN and inf lanes above already poison both
  // sums, so check the denormal and signed-zero arithmetic on its own.
  const std::vector<double> c = {-0.0, kDenormal, -kDenormal, 1e-300, 0.0};
  const std::vector<double> d = {0.0, -kDenormal, kDenormal, -1e-300, -0.0};
  EXPECT_TRUE(
      sameBits(blockedSq(c, d), simd::sqDistance(c.data(), d.data(), 5)));
  EXPECT_TRUE(
      sameBits(blockedL1(c, d), simd::l1Distance(c.data(), d.data(), 5)));

  std::vector<double> out(n);
  simd::absDeviations(a.data(), -0.0, out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(sameBits(std::fabs(a[i] - -0.0), out[i])) << "i=" << i;
  }
}

TEST(SimdKernels, NanCandidateNeverReplacesTheWhiteBoxMax) {
  // Metric 1 produces a NaN critical k (NaN mean); metric 2 a real
  // one. std::max semantics: the NaN candidate is dropped, the real
  // max survives.
  const std::vector<double> mean = {5.0, kNan, 30.0, 5.0};
  const std::vector<double> median = {5.0, 1.0, 10.0, 5.0};
  const std::vector<double> sigma = {1.0, 1.0, 4.0, 1.0};
  EXPECT_TRUE(sameBits(5.0, simd::whiteBoxCriticalK(mean.data(),
                                                    median.data(),
                                                    sigma.data(), 4, 1e18)));
}

TEST(SimdKernels, ZeroSigmaFallsToTheSentinelOnEveryIsa) {
  const std::vector<double> mean = {10.0, 1.0};
  const std::vector<double> median = {1.0, 1.0};
  const std::vector<double> sigma = {0.0, 1.0};  // below the 1e-12 floor
  const double sentinel = 424242.0;
  EXPECT_TRUE(sameBits(sentinel,
                       simd::whiteBoxCriticalK(mean.data(), median.data(),
                                               sigma.data(), 2, sentinel)));
}

TEST(SimdEndToEnd, L1DistanceNMatchesNaiveSum) {
  // l1DistanceN (stats.cpp) routes through the blocked kernel; the
  // blocked order must still equal the naive left-to-right sum
  // whenever the sum is exact — integers small enough that every
  // partial is representable.
  std::vector<double> a(31), b(31);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<double>(i * 3);
    b[i] = static_cast<double>((i % 7) * 5);
  }
  double naive = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    naive += std::fabs(a[i] - b[i]);
  }
  EXPECT_EQ(naive, l1DistanceN(a.data(), b.data(), a.size()));
}

}  // namespace
}  // namespace asdf
