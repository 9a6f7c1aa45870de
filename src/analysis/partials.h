// Pre-reduced peer-comparison partials — the kernel split every
// fingerpointer runs on (a flat deployment is one group).
//
// Peer comparison computes a cross-node median over per-node rows
// (StateVector histograms for black-box, per-metric window means and
// stddevs for white-box) and then scores each node against that
// median, as the direct kernels in peercompare.h do. Both steps are
// rank selections and per-row arithmetic, so they factor exactly
// into:
//
//   reduce (per group, near the leaves):
//     sort each component's column of the group's survivor rows —
//     a MedianPartial — and keep the survivor rows themselves;
//
//   merge (at the root):
//     per component, count-and-select across the groups' sorted
//     columns to the ranks medianInPlace() would pick over the
//     concatenated multiset, then score every survivor row against
//     the merged medians with the *same* scoring helpers the direct
//     kernels use.
//
// Determinism argument: medianInPlace() is a pure rank selection —
// for odd n it returns the rank-(n/2) element, for even n it returns
// 0.5 * (rank-(n/2-1) + rank-(n/2)). Rank selection over a multiset
// of doubles is independent of arrival order, so walking the groups'
// sorted columns to the same two ranks yields bit-identical medians,
// and identical per-row arithmetic yields bit-identical flags and
// scores. Groups cover contiguous ascending node ranges, so the
// concatenated survivor order equals the global node order.
//
// What does NOT travel in a summary: raw window sums. SlidingWindow
// sums its ring buffer in storage order, so re-summing transmitted
// windows at the root could reassociate floating-point adds; instead
// mavgvec's per-dimension statistics loop is factored into
// reduceWindowStats() and evaluated once, leaf-side, and only the
// resulting means/stddevs are shipped (see GroupSummary).
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "common/stats.h"

namespace asdf::analysis {

/// Sorted per-component columns of a group's rows, ready for rank
/// merging. Layout is column-major: sorted[d * members + j] is the
/// j-th smallest value of component d.
struct MedianPartial {
  std::size_t members = 0;
  std::size_t dims = 0;
  std::vector<double> sorted;

  void clear() {
    members = 0;
    dims = 0;
    sorted.clear();
  }
};

/// Reduce step: sorts each component's column of rows[0..n) into
/// `out`. Capacity is retained across windows.
void reduceMedianPartial(const double* const* rows, std::size_t n,
                         std::size_t dims, MedianPartial& out);

/// Scratch for the k-way rank walk; capacity retained across calls.
struct MergeScratch {
  std::vector<std::size_t> cursor;
};

/// Merge step: writes into out[0..dims) the component-wise median of
/// the union multiset of all partials — bit-identical to
/// componentwiseMedianInto() over the concatenated rows. Partials
/// with zero members are permitted; an all-empty union yields zeros
/// (matching medianInPlace() on an empty buffer).
void mergeMedianPartials(const MedianPartial* const* parts,
                         std::size_t nparts, std::size_t dims,
                         MergeScratch& scratch, double* out);

/// One group's per-window contribution to the root analysis — the
/// unit the aggregator tier ships upward. `rows` holds only the
/// survivor (monitorable) members' rows in ascending member order;
/// excluded members are recorded in `health` (rpc::NodeHealth codes)
/// so the root can reconstruct global indices and re-check quorum.
/// For black-box summaries the rows are StateVector histograms; for
/// white-box they are per-metric window means and `devMedian` holds
/// the partial over the survivors' stddev rows.
struct GroupSummary {
  double time = 0.0;
  std::size_t members = 0;
  std::size_t dims = 0;
  bool hasDev = false;
  std::vector<double> health;  // per member: 0 healthy, 1 degraded, 2 unmon.
  Matrix rows;                 // survivors x dims
  MedianPartial median;        // over rows
  MedianPartial devMedian;     // over survivor stddev rows (hasDev only)

  std::size_t survivors() const;

  /// Single canonical flat representation, used both as the DAG value
  /// between the sim aggregator and merge modules and as the wire
  /// payload body (rpc/summary.h) — one layout, zero re-marshalling.
  void pack(std::vector<double>& out) const;

  /// Rebuilds from pack() output; returns false (leaving *this
  /// unspecified) on a malformed buffer, a non-finite time included.
  /// Capacity is reused.
  bool unpack(const double* data, std::size_t n);
};

/// Scratch for reduceGroup(); capacity retained across windows.
struct ReduceScratch {
  std::vector<const double*> rows;
  std::vector<const double*> devRows;
};

/// The reduce step of one group for the window at `time`: `members`
/// rows of `dims` values (rows[i], and devRows[i] for white-box) with
/// per-member health codes (0 healthy, 1 degraded, 2 unmonitorable).
/// Fills `out` with the survivor (health != 2) rows in member order and
/// their median partial; with `devRows` it also builds the partial over
/// the survivors' stddev rows (hasDev), without it devMedian is
/// cleared. Rows of unmonitorable members are never read, so their
/// pointers may be null. Capacity is reused.
void reduceGroup(double time, const double* const* rows,
                 const double* const* devRows, const double* health,
                 std::size_t members, std::size_t dims, GroupSummary& out,
                 ReduceScratch& scratch);

/// Scratch + merged-median buffers for the root merge; capacity
/// retained across windows.
struct TieredScratch {
  MergeScratch merge;
  std::vector<const MedianPartial*> parts;
  std::vector<double> median;
  std::vector<double> sigmaMedian;
};

/// Root merge of black-box summaries: merges the median partials and
/// scores every survivor against the merged median StateVector,
/// bit-identically to blackBoxCompareInto() over the concatenated
/// survivor rows. flags/scores must hold the total member count
/// across groups (concatenated group order); non-survivor entries
/// are left untouched (callers pre-zero). Returns the survivor count.
std::size_t mergeBlackBoxSummaries(const GroupSummary* const* groups,
                                   std::size_t ngroups, double threshold,
                                   TieredScratch& scratch, double* flags,
                                   double* scores);

/// Root merge of white-box summaries: merged medians of means and of
/// stddevs, then whiteBoxCriticalK() scoring per survivor.
/// Same output conventions as mergeBlackBoxSummaries().
std::size_t mergeWhiteBoxSummaries(const GroupSummary* const* groups,
                                   std::size_t ngroups, double k,
                                   TieredScratch& scratch, double* flags,
                                   double* scores);

/// The leaf-side reduce step factored out of [mavgvec]: per-dimension
/// window statistics with arithmetic identical to SlidingWindow's
/// (ring-storage summation order). Window sums are never recomputed
/// from transmitted values — see the header comment.
void reduceWindowStats(const SlidingWindow* windows, std::size_t dims,
                       double* mean, double* var, double* stddev);

}  // namespace asdf::analysis
