// Median-absolute-deviation peer comparison — an "off-the-shelf
// analysis technique" of the kind Section 1 argues administrators
// should be able to plug in ("allow administrators to leverage
// off-the-shelf analysis techniques").
//
// Instead of the paper's fixed threshold on the L1 distance to the
// median StateVector, the MAD detector derives the threshold from the
// current window itself: node i is flagged when
//
//   score_i > median(scores) + k * MAD(scores)
//
// with MAD = median(|score - median(scores)|). This self-calibrates
// across workload phases (no trained threshold needed) at the price of
// a breakdown point: with few nodes, one loud node inflates the MAD.
// bench_ablation_analysis compares it against the paper's detector.
#pragma once

#include <vector>

#include "analysis/peercompare.h"

namespace asdf::analysis {

/// Robust z-score style decision over per-node anomaly scores.
/// `minMad` guards the all-identical-scores case (MAD = 0).
PeerComparisonResult madCompare(const std::vector<double>& scores, double k,
                                double minMad = 1.0);

}  // namespace asdf::analysis
