// The root merge step (modules/merge.h) treats group summaries as
// untrusted input: a window whose shapes disagree across groups is
// malformed and is never handed to the merge kernels, which would
// otherwise read past the smaller summary's buffers. Checked on the
// bare RootMerge and on the live tiered root, which fetches summaries
// from aggregator daemons over real sockets.
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/partials.h"
#include "harness/aggregator.h"
#include "modules/merge.h"
#include "net/agg_server.h"
#include "rpc/summary.h"

namespace asdf {
namespace {

/// A well-formed packed summary of `members` healthy nodes.
std::vector<double> packedSummary(double time, std::size_t members,
                                  std::size_t dims, bool hasDev) {
  analysis::GroupSummary s;
  s.time = time;
  s.members = members;
  s.dims = dims;
  s.hasDev = hasDev;
  s.health.assign(members, 0.0);
  s.rows.resizeRows(members, dims);
  std::vector<const double*> rows;
  for (std::size_t r = 0; r < members; ++r) {
    for (std::size_t c = 0; c < dims; ++c) {
      s.rows.row(r)[c] = 1.0 + static_cast<double>(r) + 0.5 * c;
    }
    rows.push_back(s.rows.row(r));
  }
  analysis::reduceMedianPartial(rows.data(), members, dims, s.median);
  if (hasDev) {
    analysis::reduceMedianPartial(rows.data(), members, dims, s.devMedian);
  }
  std::vector<double> packed;
  s.pack(packed);
  return packed;
}

analysis::GroupSummary unpacked(const std::vector<double>& packed) {
  analysis::GroupSummary s;
  EXPECT_TRUE(s.unpack(packed.data(), packed.size()));
  return s;
}

bool mergeOnce(modules::RootMerge& merge, const analysis::GroupSummary& a,
               const analysis::GroupSummary& b, std::vector<double>& flags) {
  const analysis::GroupSummary* groups[] = {&a, &b};
  std::vector<double> scores;
  std::vector<double> health;
  return merge.merge(groups, 5.0, flags, scores, health);
}

modules::RootMerge makeMerge(modules::PeerAnalysis analysis) {
  return modules::RootMerge(
      "analysis", analysis, 3.0,
      {"slave1", "slave2", "slave3", "slave4", "slave5", "slave6"}, {3, 3},
      0);
}

TEST(RootMerge, RejectsMismatchedSummaryShape) {
  std::vector<double> flags = {7.0};
  modules::RootMerge bb = makeMerge(modules::PeerAnalysis::kBlackBox);
  const analysis::GroupSummary wide = unpacked(packedSummary(5, 3, 4, false));
  const analysis::GroupSummary narrow =
      unpacked(packedSummary(5, 3, 2, false));
  EXPECT_FALSE(mergeOnce(bb, wide, narrow, flags));
  EXPECT_FALSE(mergeOnce(bb, narrow, wide, flags));
  const analysis::GroupSummary four = unpacked(packedSummary(5, 4, 4, false));
  EXPECT_FALSE(mergeOnce(bb, wide, four, flags));  // group sized 3
  EXPECT_EQ(std::vector<double>{7.0}, flags);      // outputs untouched
  EXPECT_TRUE(mergeOnce(bb, wide, wide, flags));
  EXPECT_EQ(6u, flags.size());
  EXPECT_EQ(nullptr, bb.transition());  // all healthy: nothing changed

  modules::RootMerge wb = makeMerge(modules::PeerAnalysis::kWhiteBox);
  const analysis::GroupSummary dev = unpacked(packedSummary(5, 3, 4, true));
  EXPECT_FALSE(mergeOnce(wb, dev, wide, flags));  // no stddev partials
  EXPECT_TRUE(mergeOnce(wb, dev, dev, flags));
}

struct SummaryServer {
  explicit SummaryServer(const rpc::SummaryBoard& board)
      : server([&board] {
          net::AggServerOptions opts;
          opts.groupSize = 3;
          opts.board = &board;
          return opts;
        }()) {
    thread = std::thread([this] { server.run(); });
  }
  ~SummaryServer() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server.port());
  }
  net::AggServer server;
  std::thread thread;
};

TEST(RootMerge, LiveRootDropsMismatchedWindow) {
  // Region 2's first black-box window is well formed on its own but
  // has fewer dims than region 1's; its first white-box window lacks
  // the stddev partials. Both windows are dropped, the rest merge.
  rpc::SummaryBoard boards[2];
  for (int r = 0; r < 2; ++r) {
    for (const double t : {5.0, 10.0, 15.0}) {
      const bool bad = r == 1 && t == 5.0;
      boards[r].append(rpc::SummaryChannel::kBlackBox, t,
                       packedSummary(t, 3, bad ? 2 : 4, false));
      boards[r].append(rpc::SummaryChannel::kWhiteBox, t,
                       packedSummary(t, 3, 4, !bad));
    }
  }
  SummaryServer first(boards[0]);
  SummaryServer second(boards[1]);

  harness::ExperimentSpec spec;
  spec.slaves = 6;
  spec.tiered = true;
  spec.tierGroups = {3, 3};
  spec.aggEndpoints = {first.endpoint(), second.endpoint()};
  spec.duration = 20.0;
  spec.realtimeScale = 200.0;
  spec.rpcPolicy.timeoutSeconds = 5.0;
  const harness::ExperimentResult result =
      harness::runTieredLiveExperiment(spec);

  for (const analysis::AlarmSeries* series :
       {&result.blackBox, &result.whiteBox}) {
    ASSERT_EQ(2u, series->size());
    EXPECT_EQ(10.0, (*series)[0].time);
    EXPECT_EQ(15.0, (*series)[1].time);
    EXPECT_EQ(std::vector<double>(6, 0.0), (*series)[0].health);
  }
  EXPECT_TRUE(result.monitoringEvents.empty());
}

TEST(RootMerge, LiveRootIgnoresNonFiniteWindowTime) {
  // Region 2's third window is stamped +inf. It is dropped, and the
  // region's fetch cursor stays finite instead of jumping past every
  // later window.
  rpc::SummaryBoard boards[2];
  for (int r = 0; r < 2; ++r) {
    for (const double t : {5.0, 10.0, 15.0}) {
      const double time = r == 1 && t == 15.0 ? HUGE_VAL : t;
      boards[r].append(rpc::SummaryChannel::kBlackBox, time,
                       packedSummary(time, 3, 4, false));
      boards[r].append(rpc::SummaryChannel::kWhiteBox, time,
                       packedSummary(time, 3, 4, true));
    }
  }
  SummaryServer first(boards[0]);
  SummaryServer second(boards[1]);

  harness::ExperimentSpec spec;
  spec.slaves = 6;
  spec.tiered = true;
  spec.tierGroups = {3, 3};
  spec.aggEndpoints = {first.endpoint(), second.endpoint()};
  spec.duration = 20.0;
  spec.realtimeScale = 200.0;
  spec.rpcPolicy.timeoutSeconds = 5.0;
  const harness::ExperimentResult result =
      harness::runTieredLiveExperiment(spec);

  for (const analysis::AlarmSeries* series :
       {&result.blackBox, &result.whiteBox}) {
    ASSERT_EQ(2u, series->size());
    for (const analysis::AlarmRecord& record : *series) {
      EXPECT_TRUE(std::isfinite(record.time));
    }
  }
}

}  // namespace
}  // namespace asdf
