#include "analysis/peercompare.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd.h"
#include "common/stats.h"

namespace asdf::analysis {
namespace {

std::vector<const double*> rowViews(
    const std::vector<std::vector<double>>& rows) {
  std::vector<const double*> out(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = rows[i].data();
  return out;
}

}  // namespace

void stateHistogramInto(const double* stateIndices, std::size_t n,
                        double* hist, std::size_t numStates) {
  std::fill(hist, hist + numStates, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const long s = std::lround(stateIndices[i]);
    if (s >= 0 && static_cast<std::size_t>(s) < numStates) {
      hist[static_cast<std::size_t>(s)] += 1.0;
    }
  }
}

PeerComparisonResult blackBoxCompare(
    const std::vector<std::vector<double>>& histograms, double threshold) {
  PeerComparisonResult result;
  if (histograms.empty()) return result;
  const std::size_t dims = histograms.front().size();
  const auto rows = rowViews(histograms);
  PeerScratch scratch;
  result.flags.resize(histograms.size());
  result.scores.resize(histograms.size());
  blackBoxCompareInto(rows.data(), rows.size(), dims, threshold, scratch,
                      result.flags.data(), result.scores.data());
  return result;
}

void blackBoxCompareInto(const double* const* histograms, std::size_t nodes,
                         std::size_t dims, double threshold,
                         PeerScratch& scratch, double* flags, double* scores) {
  if (nodes == 0) return;
  scratch.median.resize(dims);
  componentwiseMedianInto(histograms, nodes, dims, scratch.median.data(),
                          scratch.column);
  for (std::size_t i = 0; i < nodes; ++i) {
    const double d = l1DistanceN(histograms[i], scratch.median.data(), dims);
    scores[i] = d;
    flags[i] = d > threshold ? 1.0 : 0.0;
  }
}

PeerComparisonResult whiteBoxCompare(
    const std::vector<std::vector<double>>& means,
    const std::vector<std::vector<double>>& stddevs, double k) {
  PeerComparisonResult result;
  if (means.empty()) return result;
  assert(means.size() == stddevs.size());
  const std::size_t dims = means.front().size();
  const auto meanRows = rowViews(means);
  const auto stddevRows = rowViews(stddevs);
  PeerScratch scratch;
  result.flags.resize(means.size());
  result.scores.resize(means.size());
  whiteBoxCompareInto(meanRows.data(), stddevRows.data(), means.size(), dims,
                      k, scratch, result.flags.data(), result.scores.data());
  return result;
}

void whiteBoxCompareInto(const double* const* means,
                         const double* const* stddevs, std::size_t nodes,
                         std::size_t dims, double k, PeerScratch& scratch,
                         double* flags, double* scores) {
  if (nodes == 0) return;
  scratch.median.resize(dims);
  scratch.sigmaMedian.resize(dims);
  componentwiseMedianInto(means, nodes, dims, scratch.median.data(),
                          scratch.column);
  componentwiseMedianInto(stddevs, nodes, dims, scratch.sigmaMedian.data(),
                          scratch.column);

  for (std::size_t i = 0; i < nodes; ++i) {
    const double criticalK = whiteBoxCriticalK(
        means[i], scratch.median.data(), scratch.sigmaMedian.data(), dims);
    scores[i] = criticalK;
    // Flagged iff some metric has diff > max(1, k*sigma), i.e. the
    // critical k is strictly above the configured k.
    flags[i] = criticalK > k ? 1.0 : 0.0;
  }
}

double whiteBoxCriticalK(const double* mean, const double* median,
                         const double* sigmaMedian, std::size_t dims) {
  // diff <= 1.0 is below the max(1, .) floor at any k and contributes
  // nothing; the SIMD kernel mirrors that gate (including NaN diffs
  // falling through to the sigma branch) bit-exactly.
  return simd::whiteBoxCriticalK(mean, median, sigmaMedian, dims,
                                 kWhiteBoxAlwaysFlagged);
}

}  // namespace asdf::analysis
