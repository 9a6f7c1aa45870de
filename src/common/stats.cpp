#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd.h"

namespace asdf {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

namespace {

double varianceAbout(const std::vector<double>& xs, double m) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size());
}

}  // namespace

double variance(const std::vector<double>& xs) {
  return varianceAbout(xs, mean(xs));
}

double stddev(const std::vector<double>& xs) {
  return std::sqrt(variance(xs));
}

double median(std::vector<double> xs) { return medianInPlace(xs); }

double medianInPlace(std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  double lo = *std::max_element(xs.begin(), xs.begin() + mid);
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double l1DistanceN(const double* a, const double* b, std::size_t n) {
  return simd::l1Distance(a, b, n);
}

double l2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

void componentwiseMedianInto(const double* const* rows, std::size_t n,
                             std::size_t dims, double* out,
                             std::vector<double>& column) {
  column.resize(n);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t r = 0; r < n; ++r) column[r] = rows[r][d];
    out[d] = medianInPlace(column);
  }
}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::clear() {
  n_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

double RunningStats::stddev() const {
  return std::sqrt(variance());
}

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  assert(capacity > 0);
  buf_.reserve(capacity);
}

void SlidingWindow::push(double x) {
  if (buf_.size() < capacity_) {
    buf_.push_back(x);
  } else {
    buf_[head_] = x;
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<double> SlidingWindow::values() const {
  std::vector<double> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  }
  return out;
}

double SlidingWindow::mean() const { return asdf::mean(buf_); }
double SlidingWindow::variance() const { return asdf::variance(buf_); }
double SlidingWindow::stddev() const { return asdf::stddev(buf_); }

void SlidingWindow::meanVariance(double& mean, double& var) const {
  mean = asdf::mean(buf_);
  var = varianceAbout(buf_, mean);
}

}  // namespace asdf
