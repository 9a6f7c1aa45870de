// Statistics primitives used throughout the analysis modules:
// batch summaries, Welford online accumulation, medians, and the
// vector distances the black-box analysis needs.
#pragma once

#include <cstddef>
#include <vector>

namespace asdf {

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double>& xs);

/// Population variance; 0 for fewer than 2 samples.
double variance(const std::vector<double>& xs);

/// Population standard deviation.
double stddev(const std::vector<double>& xs);

/// Median (average of middle two for even sizes); 0 for empty input.
/// Copies the input; the caller's vector is untouched.
double median(std::vector<double> xs);

/// Median that partitions the caller's buffer in place (no copy);
/// identical arithmetic to median(). For scratch-buffer hot paths.
double medianInPlace(std::vector<double>& xs);

/// p-th percentile with linear interpolation, p in [0, 100].
double percentile(std::vector<double> xs, double p);

/// Sum of absolute component differences over two rows of n doubles.
double l1DistanceN(const double* a, const double* b, std::size_t n);

/// Euclidean distance. Vectors must be equal size.
double l2Distance(const std::vector<double>& a, const std::vector<double>& b);

/// Component-wise median of n rows, used by both fingerpointing
/// algorithms for peer comparison: rows[r] points at a row of `dims`
/// doubles; the per-component medians (median() arithmetic) land in
/// out[0..dims). `column` is caller scratch (resized to n, capacity
/// retained across calls) so the steady state allocates nothing.
void componentwiseMedianInto(const double* const* rows, std::size_t n,
                             std::size_t dims, double* out,
                             std::vector<double>& column);

/// Online mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void clear();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance.
  double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fixed-capacity sliding window over doubles, supporting the
/// window/slide semantics of mavgvec and the analysis modules.
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void push(double x);
  bool full() const { return buf_.size() == capacity_; }
  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  void clear() { buf_.clear(); head_ = 0; }

  /// Snapshot of current contents in insertion order.
  std::vector<double> values() const;

  double mean() const;
  double variance() const;
  double stddev() const;
  /// mean() and variance() in one mean pass and one variance pass,
  /// bit-identical to the separate calls.
  void meanVariance(double& mean, double& var) const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;      // next overwrite position once full
  std::vector<double> buf_;   // ring once size() == capacity_
};

}  // namespace asdf
