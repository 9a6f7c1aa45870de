#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace asdf {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One out-of-line transform, so a pair computed now and a pair whose
// computation skipGaussian() deferred compile to the same instructions
// (one sincos) and give the same bits.
[[gnu::noinline]] void boxMuller(double u1, double u2, double& c, double& s) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  c = r * std::cos(theta);
  s = r * std::sin(theta);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four xoshiro words from splitmix64 as its authors
  // recommend; avoids the all-zero state.
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(next() % span);
}

void Rng::drawGaussianPair(double& u1, double& u2) {
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  u2 = uniform();
}

double Rng::gaussian() {
  if (haveCachedGaussian_) {
    haveCachedGaussian_ = false;
    return cachedGaussian_;
  }
  double c = 0.0;
  double s = 0.0;
  if (havePendingPair_) {
    havePendingPair_ = false;
    boxMuller(pendingU1_, pendingU2_, c, s);
    return s;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  drawGaussianPair(u1, u2);
  boxMuller(u1, u2, c, s);
  cachedGaussian_ = s;
  haveCachedGaussian_ = true;
  return c;
}

void Rng::skipGaussian() {
  if (haveCachedGaussian_) {
    haveCachedGaussian_ = false;
    return;
  }
  if (havePendingPair_) {
    havePendingPair_ = false;
    return;
  }
  drawGaussianPair(pendingU1_, pendingU2_);
  havePendingPair_ = true;
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) {
  return uniform() < p;
}

double Rng::pareto(double xm, double alpha) {
  assert(xm > 0.0 && alpha > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weightedIndex(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double x = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::split() {
  return Rng(next() ^ 0xD1B54A32D192ED03ULL);
}

}  // namespace asdf
