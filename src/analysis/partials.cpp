#include "analysis/partials.h"

#include <algorithm>
#include <cmath>

#include "analysis/peercompare.h"
#include "common/stats.h"

namespace asdf::analysis {
namespace {

constexpr std::size_t kNoPart = static_cast<std::size_t>(-1);

// An unpack() guard, not a capacity limit: a summary datagram claiming
// more members than this is malformed, never real.
constexpr double kMaxUnpackCount = 1.0e7;

bool isCount(double v) {
  return v >= 0.0 && v <= kMaxUnpackCount && v == std::floor(v);
}

}  // namespace

void reduceMedianPartial(const double* const* rows, std::size_t n,
                         std::size_t dims, MedianPartial& out) {
  out.members = n;
  out.dims = dims;
  out.sorted.resize(n * dims);
  for (std::size_t d = 0; d < dims; ++d) {
    double* column = out.sorted.data() + d * n;
    for (std::size_t r = 0; r < n; ++r) column[r] = rows[r][d];
    std::sort(column, column + n);
  }
}

void mergeMedianPartials(const MedianPartial* const* parts,
                         std::size_t nparts, std::size_t dims,
                         MergeScratch& scratch, double* out) {
  std::size_t total = 0;
  for (std::size_t p = 0; p < nparts; ++p) total += parts[p]->members;
  if (total == 0) {
    std::fill(out, out + dims, 0.0);
    return;
  }
  const std::size_t mid = total / 2;
  const bool odd = (total % 2) == 1;
  scratch.cursor.resize(nparts);
  for (std::size_t d = 0; d < dims; ++d) {
    std::fill(scratch.cursor.begin(), scratch.cursor.end(),
              static_cast<std::size_t>(0));
    // Count-and-select: pop the global minimum across the sorted
    // columns until the median rank(s) are reached. This visits the
    // multiset in nondecreasing order, so rank r's value equals the
    // r-th order statistic of the concatenation — exactly what
    // nth_element selects in medianInPlace().
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t rank = 0; rank <= mid; ++rank) {
      std::size_t best = kNoPart;
      double bestValue = 0.0;
      for (std::size_t p = 0; p < nparts; ++p) {
        const MedianPartial& part = *parts[p];
        const std::size_t c = scratch.cursor[p];
        if (c >= part.members) continue;
        const double v = part.sorted[d * part.members + c];
        if (best == kNoPart || v < bestValue) {
          best = p;
          bestValue = v;
        }
      }
      ++scratch.cursor[best];
      if (rank + 1 == mid) lo = bestValue;
      if (rank == mid) hi = bestValue;
    }
    // Same arithmetic as medianInPlace(): odd count takes the middle
    // element; even count averages the two middle elements.
    out[d] = odd ? hi : 0.5 * (lo + hi);
  }
}

std::size_t GroupSummary::survivors() const {
  std::size_t s = 0;
  for (const double h : health) {
    if (h != 2.0) ++s;
  }
  return s;
}

void GroupSummary::pack(std::vector<double>& out) const {
  const std::size_t s = survivors();
  out.clear();
  out.reserve(4 + members + (hasDev ? 3 : 2) * s * dims);
  out.push_back(time);
  out.push_back(static_cast<double>(members));
  out.push_back(static_cast<double>(dims));
  out.push_back(hasDev ? 1.0 : 0.0);
  out.insert(out.end(), health.begin(), health.end());
  const std::vector<double>& flatRows = rows.flat();
  out.insert(out.end(), flatRows.begin(), flatRows.end());
  out.insert(out.end(), median.sorted.begin(), median.sorted.end());
  if (hasDev) {
    out.insert(out.end(), devMedian.sorted.begin(), devMedian.sorted.end());
  }
}

bool GroupSummary::unpack(const double* data, std::size_t n) {
  if (n < 4 || !std::isfinite(data[0])) return false;
  if (!isCount(data[1]) || !isCount(data[2])) return false;
  if (data[3] != 0.0 && data[3] != 1.0) return false;
  time = data[0];
  members = static_cast<std::size_t>(data[1]);
  dims = static_cast<std::size_t>(data[2]);
  hasDev = data[3] == 1.0;
  if (n < 4 + members) return false;
  health.assign(data + 4, data + 4 + members);
  std::size_t s = 0;
  for (const double h : health) {
    if (h != 0.0 && h != 1.0 && h != 2.0) return false;
    if (h != 2.0) ++s;
  }
  const std::size_t block = s * dims;
  const std::size_t expected = 4 + members + (hasDev ? 3 : 2) * block;
  if (n != expected) return false;
  const double* cursor = data + 4 + members;
  rows.resizeRows(s, dims);
  std::copy(cursor, cursor + block, rows.flat().data());
  cursor += block;
  median.members = s;
  median.dims = dims;
  median.sorted.assign(cursor, cursor + block);
  cursor += block;
  if (hasDev) {
    devMedian.members = s;
    devMedian.dims = dims;
    devMedian.sorted.assign(cursor, cursor + block);
  } else {
    devMedian.clear();
  }
  return true;
}

void reduceGroup(double time, const double* const* rows,
                 const double* const* devRows, const double* health,
                 std::size_t members, std::size_t dims, GroupSummary& out,
                 ReduceScratch& scratch) {
  out.time = time;
  out.members = members;
  out.dims = dims;
  out.hasDev = devRows != nullptr;
  out.health.assign(health, health + members);
  out.rows.clearRows();
  out.rows.resizeRows(0, dims);
  scratch.devRows.clear();
  for (std::size_t i = 0; i < members; ++i) {
    if (health[i] == 2.0) continue;
    out.rows.push_back(rows[i], dims);
    if (devRows != nullptr) scratch.devRows.push_back(devRows[i]);
  }
  scratch.rows.clear();
  for (std::size_t j = 0; j < out.rows.rows(); ++j) {
    scratch.rows.push_back(out.rows.row(j));
  }
  reduceMedianPartial(scratch.rows.data(), scratch.rows.size(), dims,
                      out.median);
  if (devRows != nullptr) {
    reduceMedianPartial(scratch.devRows.data(), scratch.devRows.size(), dims,
                        out.devMedian);
  } else {
    out.devMedian.clear();
  }
}

namespace {

std::size_t summaryDims(const GroupSummary* const* groups,
                        std::size_t ngroups) {
  for (std::size_t g = 0; g < ngroups; ++g) {
    if (groups[g]->dims > 0) return groups[g]->dims;
  }
  return 0;
}

// Walks every group's members in concatenated order, scoring survivor
// rows with `score`; non-survivors are skipped (callers pre-zero the
// output arrays).
template <typename ScoreFn>
std::size_t scoreSurvivors(const GroupSummary* const* groups,
                           std::size_t ngroups, double* flags,
                           double* scores, ScoreFn score) {
  std::size_t offset = 0;
  std::size_t survivors = 0;
  for (std::size_t g = 0; g < ngroups; ++g) {
    const GroupSummary& group = *groups[g];
    std::size_t j = 0;  // survivor row index within the group
    for (std::size_t m = 0; m < group.members; ++m) {
      if (group.health[m] == 2.0) continue;
      score(group.rows.row(j), flags + offset + m, scores + offset + m);
      ++j;
      ++survivors;
    }
    offset += group.members;
  }
  return survivors;
}

void collectParts(const GroupSummary* const* groups, std::size_t ngroups,
                  bool dev, std::vector<const MedianPartial*>& parts) {
  parts.resize(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    parts[g] = dev ? &groups[g]->devMedian : &groups[g]->median;
  }
}

}  // namespace

std::size_t mergeBlackBoxSummaries(const GroupSummary* const* groups,
                                   std::size_t ngroups, double threshold,
                                   TieredScratch& scratch, double* flags,
                                   double* scores) {
  const std::size_t dims = summaryDims(groups, ngroups);
  scratch.median.resize(dims);
  collectParts(groups, ngroups, /*dev=*/false, scratch.parts);
  mergeMedianPartials(scratch.parts.data(), ngroups, dims, scratch.merge,
                      scratch.median.data());
  const double* median = scratch.median.data();
  return scoreSurvivors(
      groups, ngroups, flags, scores,
      [&](const double* row, double* flag, double* scoreOut) {
        const double d = l1DistanceN(row, median, dims);
        *scoreOut = d;
        *flag = d > threshold ? 1.0 : 0.0;
      });
}

std::size_t mergeWhiteBoxSummaries(const GroupSummary* const* groups,
                                   std::size_t ngroups, double k,
                                   TieredScratch& scratch, double* flags,
                                   double* scores) {
  const std::size_t dims = summaryDims(groups, ngroups);
  scratch.median.resize(dims);
  scratch.sigmaMedian.resize(dims);
  collectParts(groups, ngroups, /*dev=*/false, scratch.parts);
  mergeMedianPartials(scratch.parts.data(), ngroups, dims, scratch.merge,
                      scratch.median.data());
  collectParts(groups, ngroups, /*dev=*/true, scratch.parts);
  mergeMedianPartials(scratch.parts.data(), ngroups, dims, scratch.merge,
                      scratch.sigmaMedian.data());
  const double* median = scratch.median.data();
  const double* sigmaMedian = scratch.sigmaMedian.data();
  return scoreSurvivors(
      groups, ngroups, flags, scores,
      [&](const double* row, double* flag, double* scoreOut) {
        const double criticalK =
            whiteBoxCriticalK(row, median, sigmaMedian, dims);
        *scoreOut = criticalK;
        *flag = criticalK > k ? 1.0 : 0.0;
      });
}

void reduceWindowStats(const SlidingWindow* windows, std::size_t dims,
                       double* mean, double* var, double* stddev) {
  for (std::size_t d = 0; d < dims; ++d) {
    windows[d].meanVariance(mean[d], var[d]);
    stddev[d] = std::sqrt(var[d]);
  }
}

}  // namespace asdf::analysis
