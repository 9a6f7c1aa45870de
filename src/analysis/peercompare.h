// Peer-comparison fingerpointing primitives (Sections 4.4 and 4.5).
//
// Both analyses exploit the same hypothesis: fault-free Hadoop slaves
// do statistically similar work, so the median across nodes is a
// robust reference (valid while more than half the nodes are healthy),
// and a node whose windowed behaviour departs from the median beyond a
// threshold is fingerpointed.
//
// Black-box: per-window histograms of 1-NN workload states, compared
// by L1 distance to the component-wise median histogram.
//
// White-box: per-window means of each Hadoop state metric, compared to
// the cross-node median with threshold max(1, k * sigma_median), where
// sigma_median is the median of the per-node window standard
// deviations of that metric.
//
// Each function also reports a *sweepable score* per node — the
// smallest threshold at which the node would NOT be flagged — so
// threshold sweeps (Figures 6a/6b) replay recorded windows without
// re-running the cluster.
//
// The online path does not call these comparisons directly: it runs
// the reduce/merge split in analysis/partials.h, which shares their
// scoring helpers. The *Into forms (row-pointer views, a caller-owned
// PeerScratch, no allocation once warm) are the reference that the
// partials, zero-allocation and SIMD tests compare against; the
// vector-of-vectors forms serve tests and offline sweeps and share the
// same arithmetic.
#pragma once

#include <cstddef>
#include <vector>

namespace asdf::analysis {

/// Histogram of state indices over a window, into hist[0..numStates)
/// (zeroed first): entry s counts how many samples were assigned state
/// s. This is the paper's StateVector.
void stateHistogramInto(const double* stateIndices, std::size_t n,
                        double* hist, std::size_t numStates);

struct PeerComparisonResult {
  std::vector<double> flags;   // 1.0 = fingerpointed
  std::vector<double> scores;  // sweepable per-node score (see above)
};

/// Reusable workspace for the *Into comparisons; capacity is retained
/// across windows so the steady state allocates nothing.
struct PeerScratch {
  std::vector<double> median;       // component-wise median buffer
  std::vector<double> sigmaMedian;  // white-box per-metric sigma medians
  std::vector<double> column;       // componentwiseMedianInto scratch
};

/// Black-box window decision. `histograms` holds one StateVector per
/// node. scores[i] is the L1 distance to the median StateVector;
/// flags[i] = scores[i] > threshold.
PeerComparisonResult blackBoxCompare(
    const std::vector<std::vector<double>>& histograms, double threshold);

/// Flat black-box form: histograms[i] points at a row of `dims`
/// doubles; flags/scores must hold `nodes` doubles.
void blackBoxCompareInto(const double* const* histograms, std::size_t nodes,
                         std::size_t dims, double threshold,
                         PeerScratch& scratch, double* flags, double* scores);

/// White-box window decision. `means` / `stddevs` hold one vector per
/// node (per-metric window mean / standard deviation). A node is
/// flagged when any metric's |mean - median| exceeds
/// max(1, k * sigma_median). scores[i] is the critical k: the node is
/// flagged at exactly those k < scores[i] (infinite-threshold metrics,
/// i.e. sigma_median == 0 with |diff| > 1, yield a huge sentinel).
PeerComparisonResult whiteBoxCompare(
    const std::vector<std::vector<double>>& means,
    const std::vector<std::vector<double>>& stddevs, double k);

/// Flat white-box form; same row-pointer conventions as
/// blackBoxCompareInto.
void whiteBoxCompareInto(const double* const* means,
                         const double* const* stddevs, std::size_t nodes,
                         std::size_t dims, double k, PeerScratch& scratch,
                         double* flags, double* scores);

/// One node's white-box score given already-computed medians: the
/// critical k above which the node is no longer flagged. Shared by
/// whiteBoxCompareInto() and the merge (analysis/partials.h) so the
/// two are arithmetic-identical by construction.
double whiteBoxCriticalK(const double* mean, const double* median,
                         const double* sigmaMedian, std::size_t dims);

/// The sentinel used for "flagged at every k" in white-box scores.
inline constexpr double kWhiteBoxAlwaysFlagged = 1.0e9;

}  // namespace asdf::analysis
