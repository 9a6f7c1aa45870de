// Tests of modules::HadoopLogSync, the cross-node barrier behind the
// hadoop_log module: release and drop decisions, drain cursors, row
// pruning (buffers back to their producers), and a randomized
// comparison with a plain map-based model of the release rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/value.h"
#include "modules/modules.h"

namespace asdf::modules {
namespace {

constexpr std::size_t kRowWidth = 8;  // > VecBuf's inline capacity

/// A heap row the test keeps its own handle to: use_count() == 1 means
/// the sync (and every drained copy) has let go of it, which is what
/// VecBuilder checks before reusing a pooled buffer.
std::shared_ptr<std::vector<double>> heapRow(double value) {
  return std::make_shared<std::vector<double>>(kRowWidth, value);
}

TEST(HadoopLogSync, ReleasesOnlyCompleteRows) {
  HadoopLogSync sync;
  sync.registerNode(1);
  sync.registerNode(2);
  sync.push(1, 0, {1.0});
  EXPECT_TRUE(sync.drain(1).empty());  // node 2 hasn't reported second 0
  sync.push(2, 0, {2.0});
  const auto rows1 = sync.drain(1);
  ASSERT_EQ(rows1.size(), 1u);
  EXPECT_EQ(rows1[0].first, 0);
  EXPECT_DOUBLE_EQ(rows1[0].second[0], 1.0);
  const auto rows2 = sync.drain(2);
  ASSERT_EQ(rows2.size(), 1u);
  EXPECT_DOUBLE_EQ(rows2[0].second[0], 2.0);
  EXPECT_TRUE(sync.drain(1).empty());  // cursor advanced
}

TEST(HadoopLogSync, DropsStaleIncompleteSeconds) {
  HadoopLogSync sync;
  sync.registerNode(1);
  sync.registerNode(2);
  sync.push(1, 0, {1.0});  // node 2 never reports second 0
  sync.push(1, 1, {1.1});
  sync.push(2, 1, {2.1});  // completes second 1 -> second 0 dropped
  EXPECT_EQ(sync.droppedSeconds(), 1);
  const auto rows = sync.drain(1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 1);
}

TEST(HadoopLogSync, PrunesRowExactlyWhenLastRegisteredNodeDrains) {
  HadoopLogSync sync;
  for (NodeId n = 1; n <= 3; ++n) sync.registerNode(n);
  std::vector<std::shared_ptr<std::vector<double>>> rows;
  for (NodeId n = 1; n <= 3; ++n) {
    rows.push_back(heapRow(n));
    sync.push(n, 0, core::VecBuf(rows.back()));
  }
  const auto pinned = [&] {
    return std::count_if(rows.begin(), rows.end(),
                         [](const auto& r) { return r.use_count() > 1; });
  };
  EXPECT_EQ(pinned(), 3);
  EXPECT_EQ(sync.drain(2).size(), 1u);
  EXPECT_EQ(sync.drain(3).size(), 1u);
  EXPECT_EQ(pinned(), 3);  // node 1 has not drained second 0 yet
  EXPECT_EQ(sync.drain(1).size(), 1u);
  EXPECT_EQ(pinned(), 0);

  // The same through a producer's VecBuilder: once the row is pruned,
  // the next acquire reuses the pooled buffer instead of growing.
  core::VecBuilder builder;
  sync.push(1, 1, {1.0});
  sync.push(2, 1, {2.0});
  builder.acquire().assign(kRowWidth, 3.0);
  sync.push(3, 1, builder.share());
  EXPECT_EQ(sync.drain(3).size(), 1u);
  EXPECT_EQ(sync.drain(1).size(), 1u);
  builder.acquire().assign(kRowWidth, 4.0);
  const core::VecBuf held = builder.share();  // pins the second slot
  EXPECT_EQ(builder.poolSize(), 2u);  // node 2 still pins the first one
  EXPECT_EQ(sync.drain(2).size(), 1u);
  builder.acquire();
  EXPECT_EQ(builder.poolSize(), 2u);  // the pruned row's slot came back
}

TEST(HadoopLogSync, LateRegistrantNeitherReceivesNorHoldsBackOlderRows) {
  HadoopLogSync sync;
  sync.registerNode(1);
  sync.registerNode(2);
  const auto row1 = heapRow(1.0);
  const auto row2 = heapRow(2.0);
  sync.push(1, 0, core::VecBuf(row1));
  sync.push(2, 0, core::VecBuf(row2));  // released
  sync.registerNode(3);
  sync.registerNode(3);  // idempotent
  EXPECT_EQ(sync.registeredNodes(), 3u);
  EXPECT_TRUE(sync.drain(3).empty());
  EXPECT_EQ(sync.drain(1).size(), 1u);
  EXPECT_EQ(sync.drain(2).size(), 1u);
  EXPECT_EQ(row1.use_count(), 1);  // pruned without node 3
  EXPECT_EQ(row2.use_count(), 1);

  // From now on node 3 is part of every row.
  sync.push(1, 1, {1.1});
  sync.push(2, 1, {2.1});
  EXPECT_TRUE(sync.drain(1).empty());
  sync.push(3, 1, {3.1});
  const auto rows = sync.drain(3);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 1);
  EXPECT_DOUBLE_EQ(rows[0].second[0], 3.1);
}

TEST(HadoopLogSync, UnregisteredNodeDrainsNothingAndLeavesPruningAlone) {
  HadoopLogSync sync;
  sync.registerNode(1);
  sync.registerNode(2);
  const auto row = heapRow(1.0);
  sync.push(1, 0, core::VecBuf(row));
  sync.push(2, 0, {2.0});
  EXPECT_TRUE(sync.drain(7).empty());
  EXPECT_TRUE(sync.drain(0).empty());
  EXPECT_TRUE(sync.drain(-1).empty());
  EXPECT_EQ(sync.drain(1).size(), 1u);
  EXPECT_TRUE(sync.drain(7).empty());
  EXPECT_GT(row.use_count(), 1);  // node 2 has not drained it
  EXPECT_EQ(sync.drain(2).size(), 1u);
  EXPECT_EQ(row.use_count(), 1);

  // Its pushes join no row.
  sync.push(7, 1, {7.0});
  sync.push(1, 1, {1.1});
  EXPECT_TRUE(sync.drain(1).empty());
  sync.push(2, 1, {2.1});
  EXPECT_EQ(sync.drain(1).size(), 1u);
  EXPECT_EQ(sync.registeredNodes(), 2u);
}

TEST(HadoopLogSync, DropRuleWithSeveralPendingSeconds) {
  HadoopLogSync sync;
  for (NodeId n = 1; n <= 3; ++n) sync.registerNode(n);
  for (long s = 0; s <= 3; ++s) sync.push(1, s, {1.0 + 0.1 * s});
  sync.push(2, 1, {2.1});
  sync.push(2, 3, {2.3});
  sync.push(3, 2, {3.2});
  sync.push(3, 3, {3.3});  // second 3 complete: 0, 1 and 2 dropped
  EXPECT_EQ(sync.droppedSeconds(), 3);
  sync.push(2, 2, {2.2});  // too late: pending again, can never release
  sync.push(1, 4, {1.4});
  sync.push(2, 4, {2.4});
  sync.push(3, 4, {3.4});  // second 4 complete: the late 2 is dropped
  EXPECT_EQ(sync.droppedSeconds(), 4);
  sync.push(2, 6, {2.6});
  sync.push(1, 5, {1.5});
  sync.push(2, 5, {2.5});
  sync.push(3, 5, {3.5});  // releases 5; 6 stays pending
  EXPECT_EQ(sync.droppedSeconds(), 4);
  for (NodeId n = 1; n <= 3; ++n) {
    const auto rows = sync.drain(n);
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const long second = 3 + static_cast<long>(i);
      EXPECT_EQ(rows[i].first, second);
      EXPECT_DOUBLE_EQ(rows[i].second[0], n + 0.1 * second);
    }
  }
  sync.push(1, 6, {1.6});
  sync.push(3, 6, {3.6});
  EXPECT_EQ(sync.drain(2).size(), 1u);
}

// The pool executor may run hadoop_log instances of different nodes on
// different threads. Each node pushes every second in order, so no
// second can be dropped and every node drains every second, in order,
// whatever the interleaving.
TEST(HadoopLogSync, ConcurrentPushAndDrainDeliverEverySecond) {
  constexpr int kThreads = 4;
  constexpr NodeId kNodesPerThread = 25;
  constexpr long kSeconds = 200;
  HadoopLogSync sync;
  for (NodeId n = 1; n <= kThreads * kNodesPerThread; ++n) {
    sync.registerNode(n);
  }
  std::vector<std::vector<long>> seconds(kThreads * kNodesPerThread + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HadoopLogSync::Drained out;
      const NodeId first = 1 + t * kNodesPerThread;
      for (long s = 0; s <= kSeconds; ++s) {
        for (NodeId n = first; n < first + kNodesPerThread; ++n) {
          if (s < kSeconds) sync.push(n, s, {static_cast<double>(n)});
          sync.drain(n, out);
          for (const auto& [second, wb] : out) {
            EXPECT_DOUBLE_EQ(wb[0], n);
            seconds[static_cast<std::size_t>(n)].push_back(second);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(sync.droppedSeconds(), 0);
  std::vector<long> all(kSeconds);
  for (long s = 0; s < kSeconds; ++s) all[static_cast<std::size_t>(s)] = s;
  for (NodeId n = 1; n <= kThreads * kNodesPerThread; ++n) {
    std::vector<long>& got = seconds[static_cast<std::size_t>(n)];
    for (const auto& [second, wb] : sync.drain(n)) got.push_back(second);
    EXPECT_EQ(got, all) << "node " << n;
  }
}

/// The release rule written as plainly as possible: a row per second
/// keyed by node, released when it holds every node, and completing a
/// second drops every older pending one.
class ReferenceSync {
 public:
  explicit ReferenceSync(std::size_t nodes) : nodes_(nodes) {}

  void push(NodeId node, long second, double value) {
    auto& row = pending_[second];
    row[node] = value;
    if (row.size() < nodes_) return;
    for (auto it = pending_.begin();
         it != pending_.end() && it->first <= second;) {
      if (it->first < second) {
        ++dropped_;
      } else {
        released_.emplace_back(second, it->second);
      }
      it = pending_.erase(it);
    }
  }

  const std::vector<std::pair<long, std::map<NodeId, double>>>& released()
      const {
    return released_;
  }
  long dropped() const { return dropped_; }

 private:
  std::size_t nodes_;
  std::map<long, std::map<NodeId, double>> pending_;
  std::vector<std::pair<long, std::map<NodeId, double>>> released_;
  long dropped_ = 0;
};

TEST(HadoopLogSync, ShuffledPushesAt1000NodesMatchReferenceModel) {
  constexpr NodeId kNodes = 1000;
  constexpr long kSeconds = 30;
  std::mt19937_64 rng(20090629);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Each node pushes most seconds; pushes are jittered up to 2.5 s so
  // several seconds are pending at once and a node's own seconds can
  // arrive out of order. A few seconds are skipped (drops) and a few
  // pushed twice with a new value (the last one wins).
  struct Push {
    double key;
    NodeId node;
    long second;
    double value;
  };
  std::vector<Push> pushes;
  for (NodeId n = 1; n <= kNodes; ++n) {
    for (long s = 0; s < kSeconds; ++s) {
      if (unit(rng) < 0.00015) continue;
      const double value = static_cast<double>(s * 10000 + n);
      pushes.push_back({s + 2.5 * unit(rng), n, s, value});
      if (unit(rng) < 0.001) {
        pushes.push_back({s + 2.5 * unit(rng), n, s, value + 0.5});
      }
    }
  }
  std::sort(pushes.begin(), pushes.end(),
            [](const Push& a, const Push& b) { return a.key < b.key; });

  HadoopLogSync sync;
  ReferenceSync reference(kNodes);
  for (NodeId n = 1; n <= kNodes; ++n) sync.registerNode(n);
  std::vector<std::vector<std::pair<long, double>>> drained(kNodes + 1);
  HadoopLogSync::Drained out;
  const auto drainInto = [&](NodeId n) {
    sync.drain(n, out);
    for (const auto& [second, wb] : out) {
      ASSERT_EQ(wb.size(), 1u);
      drained[static_cast<std::size_t>(n)].emplace_back(second, wb[0]);
    }
  };
  for (const Push& p : pushes) {
    sync.push(p.node, p.second, {p.value});
    reference.push(p.node, p.second, p.value);
    if (unit(rng) < 0.3) drainInto(p.node);
  }
  for (NodeId n = 1; n <= kNodes; ++n) drainInto(n);

  const auto& released = reference.released();
  ASSERT_GT(released.size(), static_cast<std::size_t>(kSeconds / 2));
  EXPECT_GT(reference.dropped(), 0);
  EXPECT_EQ(sync.droppedSeconds(), reference.dropped());
  for (NodeId n = 1; n <= kNodes; ++n) {
    const auto& got = drained[static_cast<std::size_t>(n)];
    ASSERT_EQ(got.size(), released.size()) << "node " << n;
    for (std::size_t i = 0; i < released.size(); ++i) {
      ASSERT_EQ(got[i].first, released[i].first) << "node " << n;
      ASSERT_EQ(got[i].second, released[i].second.at(n)) << "node " << n;
    }
  }
}

}  // namespace
}  // namespace asdf::modules
