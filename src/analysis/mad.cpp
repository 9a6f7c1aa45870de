#include "analysis/mad.h"

#include <cmath>

#include "common/simd.h"
#include "common/stats.h"

namespace asdf::analysis {

PeerComparisonResult madCompare(const std::vector<double>& scores, double k,
                                double minMad) {
  PeerComparisonResult result;
  if (scores.empty()) return result;
  const double med = median(scores);
  std::vector<double> deviations(scores.size());
  simd::absDeviations(scores.data(), med, deviations.data(), scores.size());
  const double mad = std::max(minMad, median(deviations));

  result.flags.reserve(scores.size());
  result.scores.reserve(scores.size());
  for (double s : scores) {
    // Sweepable score: the k at which this node stops being flagged.
    const double criticalK = (s - med) / mad;
    result.scores.push_back(criticalK);
    result.flags.push_back(criticalK > k ? 1.0 : 0.0);
  }
  return result;
}

}  // namespace asdf::analysis
