// Property tests for the aggregation-tier kernel split (DESIGN.md
// §12): merging per-group median partials must reproduce the flat
// cross-node median — and the full merge kernels the flat
// fingerpointing decisions — bit-exactly, for odd and even peer
// counts, skewed group sizes, and with unmonitorable members excluded
// (the PR-2 quorum semantics must survive the tier split).
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/partials.h"
#include "analysis/peercompare.h"
#include "common/rng.h"
#include "common/stats.h"

namespace asdf::analysis {
namespace {

std::vector<std::vector<double>> randomRows(Rng& rng, std::size_t n,
                                            std::size_t dims) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(dims));
  for (auto& row : rows) {
    for (double& v : row) v = rng.gaussian(10.0, 4.0);
  }
  // Duplicated values exercise tie-breaking in the rank walk.
  if (n >= 2) rows[n - 1] = rows[0];
  return rows;
}

std::vector<const double*> rowPtrs(const std::vector<std::vector<double>>& rows) {
  std::vector<const double*> ptrs;
  ptrs.reserve(rows.size());
  for (const auto& row : rows) ptrs.push_back(row.data());
  return ptrs;
}

/// Builds one group's summary from per-member rows and health codes
/// (only survivors' rows enter the summary, like the agg modules do).
GroupSummary makeSummary(const std::vector<std::vector<double>>& memberRows,
                         const std::vector<int>& health,
                         const std::vector<std::vector<double>>* devRows) {
  GroupSummary s;
  s.time = 123.0;
  s.members = memberRows.size();
  s.dims = memberRows.empty() ? 0 : memberRows[0].size();
  s.hasDev = devRows != nullptr;
  for (int h : health) s.health.push_back(static_cast<double>(h));
  std::vector<const double*> survivors;
  std::vector<const double*> survivorDevs;
  for (std::size_t m = 0; m < memberRows.size(); ++m) {
    if (health[m] == 2) continue;
    s.rows.push_back(memberRows[m].data(), s.dims);
    if (devRows != nullptr) survivorDevs.push_back((*devRows)[m].data());
  }
  for (std::size_t j = 0; j < s.rows.rows(); ++j) {
    survivors.push_back(s.rows.row(j));
  }
  reduceMedianPartial(survivors.data(), survivors.size(), s.dims, s.median);
  if (devRows != nullptr) {
    reduceMedianPartial(survivorDevs.data(), survivorDevs.size(), s.dims,
                        s.devMedian);
  }
  return s;
}

/// Splits `rows` into groups of the given sizes and reduces each.
std::vector<GroupSummary> splitIntoGroups(
    const std::vector<std::vector<double>>& rows,
    const std::vector<int>& health, const std::vector<int>& sizes,
    const std::vector<std::vector<double>>* devRows) {
  std::vector<GroupSummary> groups;
  std::size_t first = 0;
  for (int size : sizes) {
    const std::size_t n = static_cast<std::size_t>(size);
    std::vector<std::vector<double>> part(rows.begin() + first,
                                          rows.begin() + first + n);
    std::vector<int> partHealth(health.begin() + first,
                                health.begin() + first + n);
    if (devRows != nullptr) {
      std::vector<std::vector<double>> devPart(devRows->begin() + first,
                                               devRows->begin() + first + n);
      groups.push_back(makeSummary(part, partHealth, &devPart));
    } else {
      groups.push_back(makeSummary(part, partHealth, nullptr));
    }
    first += n;
  }
  return groups;
}

std::vector<const GroupSummary*> groupPtrs(
    const std::vector<GroupSummary>& groups) {
  std::vector<const GroupSummary*> ptrs;
  for (const GroupSummary& g : groups) ptrs.push_back(&g);
  return ptrs;
}

// ---------------------------------------------------------------------------
// Median partial merge vs flat component-wise median.

void expectMergedMedianMatchesFlat(std::size_t total,
                                   const std::vector<int>& sizes,
                                   std::uint64_t seed) {
  constexpr std::size_t kDims = 7;
  Rng rng(seed);
  const std::vector<std::vector<double>> rows = randomRows(rng, total, kDims);
  const std::vector<const double*> ptrs = rowPtrs(rows);

  std::vector<double> flat(kDims), column;
  componentwiseMedianInto(ptrs.data(), ptrs.size(), kDims, flat.data(),
                          column);

  std::vector<MedianPartial> partials(sizes.size());
  std::vector<const MedianPartial*> parts;
  std::size_t first = 0;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    reduceMedianPartial(ptrs.data() + first,
                        static_cast<std::size_t>(sizes[g]), kDims,
                        partials[g]);
    parts.push_back(&partials[g]);
    first += static_cast<std::size_t>(sizes[g]);
  }
  ASSERT_EQ(first, total);

  MergeScratch scratch;
  std::vector<double> merged(kDims);
  mergeMedianPartials(parts.data(), parts.size(), kDims, scratch,
                      merged.data());
  for (std::size_t d = 0; d < kDims; ++d) {
    // Bit-exact, not approximate: the tiered topology must reproduce
    // the flat alarms byte-for-byte.
    EXPECT_EQ(flat[d], merged[d]) << "dim " << d << " total " << total;
  }
}

TEST(Partials, MergedMedianMatchesFlatOddCount) {
  expectMergedMedianMatchesFlat(9, {3, 3, 3}, 101);
  expectMergedMedianMatchesFlat(7, {2, 3, 2}, 102);
}

TEST(Partials, MergedMedianMatchesFlatEvenCount) {
  expectMergedMedianMatchesFlat(8, {4, 4}, 201);
  expectMergedMedianMatchesFlat(10, {5, 5}, 202);
}

TEST(Partials, MergedMedianMatchesFlatSkewedGroups) {
  expectMergedMedianMatchesFlat(10, {1, 7, 2}, 301);
  expectMergedMedianMatchesFlat(11, {1, 1, 9}, 302);
  expectMergedMedianMatchesFlat(5, {4, 1}, 303);
}

TEST(Partials, MergedMedianMatchesFlatSingleGroup) {
  expectMergedMedianMatchesFlat(6, {6}, 401);
}

TEST(Partials, MergedMedianManyRandomTopologies) {
  Rng topo(999);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t total =
        static_cast<std::size_t>(topo.uniformInt(3, 24));
    std::vector<int> sizes;
    std::size_t left = total;
    while (left > 0) {
      const int g = static_cast<int>(
          topo.uniformInt(1, static_cast<std::int64_t>(left)));
      sizes.push_back(g);
      left -= static_cast<std::size_t>(g);
    }
    expectMergedMedianMatchesFlat(total, sizes, 5000 + trial);
  }
}

TEST(Partials, MergeToleratesEmptyGroups) {
  constexpr std::size_t kDims = 3;
  Rng rng(77);
  const std::vector<std::vector<double>> rows = randomRows(rng, 5, kDims);
  const std::vector<const double*> ptrs = rowPtrs(rows);

  std::vector<double> flat(kDims), column;
  componentwiseMedianInto(ptrs.data(), ptrs.size(), kDims, flat.data(),
                          column);

  MedianPartial a, empty, b;
  reduceMedianPartial(ptrs.data(), 2, kDims, a);
  reduceMedianPartial(ptrs.data(), 0, kDims, empty);
  reduceMedianPartial(ptrs.data() + 2, 3, kDims, b);
  const MedianPartial* parts[] = {&a, &empty, &b};

  MergeScratch scratch;
  std::vector<double> merged(kDims);
  mergeMedianPartials(parts, 3, kDims, scratch, merged.data());
  for (std::size_t d = 0; d < kDims; ++d) EXPECT_EQ(flat[d], merged[d]);

  // An all-empty union yields zeros, matching medianInPlace() on an
  // empty buffer.
  const MedianPartial* nothing[] = {&empty};
  std::vector<double> zero(kDims, -1.0);
  mergeMedianPartials(nothing, 1, kDims, scratch, zero.data());
  for (double v : zero) EXPECT_EQ(0.0, v);
}

// ---------------------------------------------------------------------------
// Full merge kernels vs the flat compare kernels, with exclusions.

void expectBlackBoxMergeMatchesFlat(const std::vector<int>& sizes,
                                    const std::vector<int>& health,
                                    std::uint64_t seed) {
  constexpr std::size_t kDims = 8;
  constexpr double kThreshold = 6.0;
  std::size_t total = 0;
  for (int s : sizes) total += static_cast<std::size_t>(s);
  ASSERT_EQ(total, health.size());

  Rng rng(seed);
  const std::vector<std::vector<double>> rows = randomRows(rng, total, kDims);

  // Flat reference: the kernel over the concatenated survivor rows.
  std::vector<const double*> survivorPtrs;
  std::vector<std::size_t> survivorIndex;  // survivor j -> member index
  for (std::size_t m = 0; m < total; ++m) {
    if (health[m] == 2) continue;
    survivorPtrs.push_back(rows[m].data());
    survivorIndex.push_back(m);
  }
  PeerScratch flatScratch;
  std::vector<double> flatFlags(survivorPtrs.size());
  std::vector<double> flatScores(survivorPtrs.size());
  blackBoxCompareInto(survivorPtrs.data(), survivorPtrs.size(), kDims,
                      kThreshold, flatScratch, flatFlags.data(),
                      flatScores.data());

  // Tiered: reduce per group, merge at the root.
  const std::vector<GroupSummary> groups =
      splitIntoGroups(rows, health, sizes, nullptr);
  const std::vector<const GroupSummary*> ptrs = groupPtrs(groups);

  TieredScratch scratch;
  std::vector<double> flags(total, 0.0);
  std::vector<double> scores(total, 0.0);
  const std::size_t survivors =
      mergeBlackBoxSummaries(ptrs.data(), ptrs.size(), kThreshold, scratch,
                             flags.data(), scores.data());
  ASSERT_EQ(survivorPtrs.size(), survivors);

  for (std::size_t j = 0; j < survivorIndex.size(); ++j) {
    EXPECT_EQ(flatFlags[j], flags[survivorIndex[j]]) << "member "
                                                     << survivorIndex[j];
    EXPECT_EQ(flatScores[j], scores[survivorIndex[j]]) << "member "
                                                       << survivorIndex[j];
  }
  for (std::size_t m = 0; m < total; ++m) {
    if (health[m] != 2) continue;
    EXPECT_EQ(0.0, flags[m]);
    EXPECT_EQ(0.0, scores[m]);
  }
}

TEST(Partials, BlackBoxMergeMatchesFlatAllHealthy) {
  expectBlackBoxMergeMatchesFlat({3, 3, 3}, std::vector<int>(9, 0), 11);
  expectBlackBoxMergeMatchesFlat({4, 4}, std::vector<int>(8, 0), 12);
}

TEST(Partials, BlackBoxMergeMatchesFlatWithExclusions) {
  // Unmonitorable members scattered across groups, including one group
  // losing all members (dead aggregator / dead region).
  expectBlackBoxMergeMatchesFlat({3, 3, 3}, {0, 2, 0, 1, 0, 2, 0, 0, 2}, 21);
  expectBlackBoxMergeMatchesFlat({2, 4, 3}, {2, 2, 0, 0, 1, 0, 0, 0, 0}, 22);
  expectBlackBoxMergeMatchesFlat({1, 5, 4},
                                 {2, 0, 0, 0, 0, 0, 0, 2, 0, 1}, 23);
}

void expectWhiteBoxMergeMatchesFlat(const std::vector<int>& sizes,
                                    const std::vector<int>& health,
                                    std::uint64_t seed) {
  constexpr std::size_t kDims = 6;
  constexpr double kK = 2.0;
  std::size_t total = 0;
  for (int s : sizes) total += static_cast<std::size_t>(s);
  ASSERT_EQ(total, health.size());

  Rng rng(seed);
  const std::vector<std::vector<double>> means = randomRows(rng, total, kDims);
  std::vector<std::vector<double>> stddevs(total, std::vector<double>(kDims));
  for (std::size_t m = 0; m < total; ++m) {
    for (std::size_t d = 0; d < kDims; ++d) {
      // Mix in exact zeros to exercise the sigma==0 sentinel path.
      stddevs[m][d] = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.05, 3.0);
    }
  }

  std::vector<const double*> meanPtrs, devPtrs;
  std::vector<std::size_t> survivorIndex;
  for (std::size_t m = 0; m < total; ++m) {
    if (health[m] == 2) continue;
    meanPtrs.push_back(means[m].data());
    devPtrs.push_back(stddevs[m].data());
    survivorIndex.push_back(m);
  }
  PeerScratch flatScratch;
  std::vector<double> flatFlags(meanPtrs.size());
  std::vector<double> flatScores(meanPtrs.size());
  whiteBoxCompareInto(meanPtrs.data(), devPtrs.data(), meanPtrs.size(),
                      kDims, kK, flatScratch, flatFlags.data(),
                      flatScores.data());

  const std::vector<GroupSummary> groups =
      splitIntoGroups(means, health, sizes, &stddevs);
  const std::vector<const GroupSummary*> ptrs = groupPtrs(groups);

  TieredScratch scratch;
  std::vector<double> flags(total, 0.0);
  std::vector<double> scores(total, 0.0);
  const std::size_t survivors = mergeWhiteBoxSummaries(
      ptrs.data(), ptrs.size(), kK, scratch, flags.data(), scores.data());
  ASSERT_EQ(meanPtrs.size(), survivors);

  for (std::size_t j = 0; j < survivorIndex.size(); ++j) {
    EXPECT_EQ(flatFlags[j], flags[survivorIndex[j]]);
    EXPECT_EQ(flatScores[j], scores[survivorIndex[j]]);
  }
}

TEST(Partials, WhiteBoxMergeMatchesFlat) {
  expectWhiteBoxMergeMatchesFlat({3, 3, 3}, std::vector<int>(9, 0), 31);
  expectWhiteBoxMergeMatchesFlat({4, 4}, std::vector<int>(8, 0), 32);
  expectWhiteBoxMergeMatchesFlat({1, 7, 2}, {0, 0, 2, 0, 1, 0, 2, 0, 0, 0},
                                 33);
}

// ---------------------------------------------------------------------------
// GroupSummary canonical representation.

TEST(Partials, SummaryPackUnpackRoundTrip) {
  Rng rng(404);
  const std::vector<std::vector<double>> means = randomRows(rng, 5, 4);
  std::vector<std::vector<double>> devs(5, std::vector<double>(4, 0.5));
  const std::vector<int> health = {0, 2, 0, 1, 0};
  const GroupSummary original = makeSummary(means, health, &devs);

  std::vector<double> packed;
  original.pack(packed);

  GroupSummary decoded;
  ASSERT_TRUE(decoded.unpack(packed.data(), packed.size()));
  EXPECT_EQ(original.time, decoded.time);
  EXPECT_EQ(original.members, decoded.members);
  EXPECT_EQ(original.dims, decoded.dims);
  EXPECT_EQ(original.hasDev, decoded.hasDev);
  EXPECT_EQ(original.health, decoded.health);
  EXPECT_EQ(original.survivors(), decoded.survivors());
  ASSERT_EQ(original.rows.rows(), decoded.rows.rows());
  for (std::size_t j = 0; j < original.rows.rows(); ++j) {
    for (std::size_t d = 0; d < original.dims; ++d) {
      EXPECT_EQ(original.rows.row(j)[d], decoded.rows.row(j)[d]);
    }
  }
  EXPECT_EQ(original.median.sorted, decoded.median.sorted);
  EXPECT_EQ(original.devMedian.sorted, decoded.devMedian.sorted);

  // Re-packing the decoded summary reproduces the exact buffer: the
  // representation is canonical.
  std::vector<double> repacked;
  decoded.pack(repacked);
  EXPECT_EQ(packed, repacked);
}

TEST(Partials, SummaryUnpackRejectsMalformed) {
  Rng rng(405);
  const std::vector<std::vector<double>> rows = randomRows(rng, 3, 2);
  const GroupSummary original =
      makeSummary(rows, std::vector<int>(3, 0), nullptr);
  std::vector<double> packed;
  original.pack(packed);

  GroupSummary decoded;
  EXPECT_TRUE(decoded.unpack(packed.data(), packed.size()));
  // Truncated.
  EXPECT_FALSE(decoded.unpack(packed.data(), packed.size() - 1));
  EXPECT_FALSE(decoded.unpack(packed.data(), 2));
  // Bad health code.
  std::vector<double> bad = packed;
  bad[4] = 7.0;
  EXPECT_FALSE(decoded.unpack(bad.data(), bad.size()));
  // Non-integral member count.
  bad = packed;
  bad[1] = 2.5;
  EXPECT_FALSE(decoded.unpack(bad.data(), bad.size()));
  // Trailing garbage.
  bad = packed;
  bad.push_back(1.0);
  EXPECT_FALSE(decoded.unpack(bad.data(), bad.size()));
  // Non-finite window time.
  bad = packed;
  bad[0] = std::nan("");
  EXPECT_FALSE(decoded.unpack(bad.data(), bad.size()));
}

// ---------------------------------------------------------------------------
// reduceGroup: the one reduce step of the agg modules and the live root.

/// reduceGroup() over per-member rows, passing nullptr for the rows of
/// unmonitorable members, packed.
std::vector<double> reducedPacked(
    const std::vector<std::vector<double>>& rows,
    const std::vector<int>& health,
    const std::vector<std::vector<double>>* devRows) {
  std::vector<const double*> rowPtrs;
  std::vector<const double*> devPtrs;
  std::vector<double> codes;
  for (std::size_t m = 0; m < rows.size(); ++m) {
    const bool down = health[m] == 2;
    rowPtrs.push_back(down ? nullptr : rows[m].data());
    devPtrs.push_back(down || devRows == nullptr ? nullptr
                                                 : (*devRows)[m].data());
    codes.push_back(static_cast<double>(health[m]));
  }
  GroupSummary summary;
  ReduceScratch scratch;
  reduceGroup(123.0, rowPtrs.data(),
              devRows != nullptr ? devPtrs.data() : nullptr, codes.data(),
              rows.size(), rows[0].size(), summary, scratch);
  std::vector<double> packed;
  summary.pack(packed);
  return packed;
}

TEST(Partials, ReduceGroupMatchesHandBuiltSummary) {
  Rng rng(406);
  const std::vector<std::vector<double>> rows = randomRows(rng, 5, 4);
  const std::vector<std::vector<double>> devs = randomRows(rng, 5, 4);
  const std::vector<int> health = {0, 1, 2, 0, 0};
  std::vector<double> expected;
  makeSummary(rows, health, nullptr).pack(expected);
  EXPECT_EQ(expected, reducedPacked(rows, health, nullptr));  // black-box
  makeSummary(rows, health, &devs).pack(expected);
  EXPECT_EQ(expected, reducedPacked(rows, health, &devs));  // white-box
}

TEST(Partials, ReduceGroupAllUnmonitorableCarriesOnlyHealth) {
  constexpr std::size_t kMembers = 4;
  constexpr std::size_t kDims = 3;
  const std::vector<double> down(kMembers, 2.0);
  const std::vector<const double*> noRows(kMembers, nullptr);
  ReduceScratch scratch;
  GroupSummary blackBox;
  GroupSummary whiteBox;
  reduceGroup(50.0, noRows.data(), nullptr, down.data(), kMembers, kDims,
              blackBox, scratch);
  reduceGroup(50.0, noRows.data(), noRows.data(), down.data(), kMembers,
              kDims, whiteBox, scratch);
  for (const GroupSummary* summary : {&blackBox, &whiteBox}) {
    std::vector<double> packed;
    summary->pack(packed);
    EXPECT_EQ(4 + kMembers, packed.size());
  }

  // Beside a healthy group of identical rows, nobody is flagged.
  const std::vector<std::vector<double>> same(3, {1.0, 2.0, 3.0});
  const GroupSummary healthy = makeSummary(same, {0, 0, 0}, &same);
  TieredScratch merge;
  std::vector<double> flags(3 + kMembers, 0.0);
  std::vector<double> scores(3 + kMembers, 0.0);
  const GroupSummary* bbGroups[] = {&healthy, &blackBox};
  EXPECT_EQ(3u, mergeBlackBoxSummaries(bbGroups, 2, 6.0, merge, flags.data(),
                                       scores.data()));
  EXPECT_EQ(std::vector<double>(3 + kMembers, 0.0), flags);
  const GroupSummary* wbGroups[] = {&healthy, &whiteBox};
  EXPECT_EQ(3u, mergeWhiteBoxSummaries(wbGroups, 2, 3.0, merge, flags.data(),
                                       scores.data()));
  EXPECT_EQ(std::vector<double>(3 + kMembers, 0.0), flags);
}

}  // namespace
}  // namespace asdf::analysis
