// Deterministic random number generation.
//
// Every stochastic component of the simulated cluster (workload
// arrivals, task durations, metric noise, packet loss) draws from an
// Rng seeded from the experiment spec, so a run is exactly
// reproducible given its seed. The generator is xoshiro256**, which is
// fast, has 256 bits of state, and passes BigCrush.
#pragma once

#include <cstdint>
#include <span>

namespace asdf {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached pair).
  double gaussian();

  /// Advances the stream exactly as gaussian() would, without computing
  /// the value: the same uniforms are drawn (rejection loop included)
  /// and a cached second half is consumed. When a fresh pair is drawn,
  /// its unread half stays pending, so a following gaussian() returns
  /// the same bits it would have without the skip.
  void skipGaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Pareto-distributed value with scale xm and shape alpha; used for
  /// heavy-tailed job sizes in the GridMix-like workload.
  double pareto(double xm, double alpha);

  /// Samples an index in [0, weights.size()) proportional to weights.
  std::size_t weightedIndex(std::span<const double> weights);

  /// Derives an independent child generator; useful for giving each
  /// node / component its own stream while staying reproducible.
  Rng split();

 private:
  /// Draws the uniform pair of one Box-Muller transform.
  void drawGaussianPair(double& u1, double& u2);

  std::uint64_t s_[4];
  bool haveCachedGaussian_ = false;
  double cachedGaussian_ = 0.0;
  // A pair drawn by skipGaussian(): its second half is computed only if
  // gaussian() asks for it.
  bool havePendingPair_ = false;
  double pendingU1_ = 0.0;
  double pendingU2_ = 0.0;
};

}  // namespace asdf
