// RpcClient::fetchBatch against one fetch at a time: two identical
// simulated worlds under monitoring faults (crash, hang, slowdown,
// partition) and PacketLoss on the fault-tolerant client, one fetching
// each second's rounds as batches — sadc for every node, then
// TaskTracker for every node, then DataNode for the nodes whose
// TaskTracker round succeeded, as the collector modules do — and the
// other one round at a time in the same per-node order. Every per-node
// outcome must be the same: fetched values, attempts, breakers,
// the health registry, channel counters and observer samples.
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "attempt_log.h"
#include "hadoop/cluster.h"
#include "rpc/daemons.h"
#include "rpc/payloads.h"
#include "rpc/rpc_client.h"
#include "sim/engine.h"

namespace asdf::rpc {
namespace {

constexpr int kSlaves = 6;
constexpr NodeId kRepeated = 4;  // asked twice in every sadc batch

using Rows = std::vector<hadooplog::StateSample>;

/// Observer samples by node: (kind, now, attempts, ok, payload).
class RecordingObserver final : public CollectionObserver {
 public:
  using Entry = std::tuple<int, SimTime, int, bool, std::vector<std::uint8_t>>;
  void onSample(const CollectSample& s) override {
    byNode[s.node].emplace_back(
        static_cast<int>(s.kind), s.now, s.attempts, s.ok,
        std::vector<std::uint8_t>(s.payload, s.payload + s.payloadSize));
  }
  std::map<NodeId, std::vector<Entry>> byNode;
};

struct World {
  World() : cluster(params(), 33, engine), hub(cluster, 0.0),
            client(cluster, hub, RpcPolicy{}, 77) {
    cluster.start();
    client.setObserver(&observer);
    client.setAttemptSink(&attempts);
    cluster.node(kRepeated).nic().setLossRate(0.6);  // PacketLoss
  }
  static hadoop::HadoopParams params() {
    hadoop::HadoopParams p;
    p.slaveCount = kSlaves;
    return p;
  }
  /// The monitoring faults active at `t`.
  void applyFaults(SimTime t) {
    MonitoringFaultBoard& board = client.faults();
    board.setCrashed(1, Daemon::kSadc, t >= 5 && t < 30);
    board.setHung(2, Daemon::kHadoopLog, t >= 10 && t < 40);
    board.setPartitioned(3, t >= 20 && t < 26);
    board.setSlowFactor(5, Daemon::kSadc, t >= 15 && t < 25 ? 200.0 : 1.0);
  }

  sim::SimEngine engine;
  hadoop::Cluster cluster;
  RpcHub hub;
  RpcClient client;
  RecordingObserver observer;
  AttemptLog attempts;
};

/// One second's outcomes: per round, in the same order in both worlds.
struct Second {
  std::vector<Fetched<metrics::SadcSnapshot>> sadc =
      std::vector<Fetched<metrics::SadcSnapshot>>(kSlaves + 1);
  std::vector<Fetched<Rows>> tt = std::vector<Fetched<Rows>>(kSlaves);
  std::vector<Fetched<Rows>> dn = std::vector<Fetched<Rows>>(kSlaves);
};

/// One second's batches for nodes first..last (kRepeated asked twice
/// when in range).
void fetchBatched(World& w, SimTime t, Second& out, NodeId first = 1,
                  NodeId last = kSlaves) {
  std::vector<CollectRequest> requests;
  std::vector<Fetched<metrics::SadcSnapshot>*> sadcOuts;
  for (NodeId n = first; n <= last; ++n) {
    requests.push_back({CollectKind::kSadc, n, t, kNoTime});
    sadcOuts.push_back(&out.sadc[n - 1]);
  }
  if (kRepeated >= first && kRepeated <= last) {
    requests.push_back({CollectKind::kSadc, kRepeated, t, kNoTime});
    sadcOuts.push_back(&out.sadc[kSlaves]);
  }
  w.client.fetchBatch<metrics::SadcSnapshot>(requests, sadcOuts);

  requests.clear();
  std::vector<Fetched<Rows>*> rowOuts;
  for (NodeId n = first; n <= last; ++n) {
    requests.push_back({CollectKind::kTt, n, t, t});
    rowOuts.push_back(&out.tt[n - 1]);
  }
  w.client.fetchBatch<Rows>(requests, rowOuts);
  requests.clear();
  rowOuts.clear();
  for (NodeId n = first; n <= last; ++n) {
    if (!out.tt[n - 1].ok) continue;
    requests.push_back({CollectKind::kDn, n, t, t});
    rowOuts.push_back(&out.dn[n - 1]);
  }
  w.client.fetchBatch<Rows>(requests, rowOuts);
}

void fetchOneByOne(World& w, SimTime t, Second& out) {
  for (NodeId n = 1; n <= kSlaves; ++n) {
    w.client.fetchSadc(n, t, out.sadc[n - 1]);
  }
  w.client.fetchSadc(kRepeated, t, out.sadc[kSlaves]);
  for (NodeId n = 1; n <= kSlaves; ++n) {
    w.client.fetchTt(n, t, t, out.tt[n - 1]);
    if (out.tt[n - 1].ok) w.client.fetchDn(n, t, t, out.dn[n - 1]);
  }
}

/// The Table 4 counters and the robustness totals of both clients.
void expectSameCounters(RpcClient& a, RpcClient& b,
                        const std::string& label) {
  EXPECT_EQ(a.totalRounds(), b.totalRounds()) << label;
  EXPECT_EQ(a.totalRetries(), b.totalRetries()) << label;
  EXPECT_EQ(a.totalFailedRounds(), b.totalFailedRounds()) << label;
  EXPECT_EQ(a.totalFastFails(), b.totalFastFails()) << label;
  EXPECT_EQ(a.totalBreakerOpens(), b.totalBreakerOpens()) << label;
  const auto ca = a.transports().channels();
  const auto cb = b.transports().channels();
  ASSERT_EQ(ca.size(), cb.size()) << label;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    const std::string at = label + " " + ca[i]->name();
    EXPECT_EQ(ca[i]->name(), cb[i]->name()) << at;
    EXPECT_EQ(ca[i]->connects(), cb[i]->connects()) << at;
    EXPECT_EQ(ca[i]->calls(), cb[i]->calls()) << at;
    EXPECT_EQ(ca[i]->failedCalls(), cb[i]->failedCalls()) << at;
    EXPECT_EQ(ca[i]->totalCallBytes(), cb[i]->totalCallBytes()) << at;
  }
}

/// Every node's registry entry in both clients, read at `now`.
void expectSameHealth(RpcClient& a, RpcClient& b, SimTime now,
                      const std::string& label) {
  for (NodeId n = 1; n <= kSlaves; ++n) {
    const std::string at = label + " node " + std::to_string(n);
    EXPECT_EQ(a.health().aggregate(n), b.health().aggregate(n)) << at;
    for (const Daemon d : {Daemon::kSadc, Daemon::kHadoopLog}) {
      EXPECT_EQ(a.health().channelHealth(n, d),
                b.health().channelHealth(n, d))
          << at;
      EXPECT_EQ(a.health().staleness(n, d, now),
                b.health().staleness(n, d, now))
          << at;
    }
  }
}

template <typename T>
void expectSameRound(Fetched<T>& a, Fetched<T>& b, const std::string& label) {
  ASSERT_EQ(a.ok, b.ok) << label;
  EXPECT_EQ(a.retried, b.retried) << label;
  EXPECT_EQ(a.attempts, b.attempts) << label;
  if (!a.ok) return;
  Encoder ea;
  Encoder eb;
  encodePayload(ea, &a.value);
  encodePayload(eb, &b.value);
  EXPECT_EQ(ea.bytes(), eb.bytes()) << label;
}

TEST(RpcClientBatch, BatchEqualsOneAtATimeUnderMonitoringFaults) {
  World batched;
  World single;
  long failedRounds = 0;
  long retriedRounds = 0;
  for (int second = 1; second <= 60; ++second) {
    const SimTime t = second;
    batched.engine.runUntil(t);
    single.engine.runUntil(t);
    batched.applyFaults(t);
    single.applyFaults(t);
    Second a;
    Second b;
    fetchBatched(batched, t, a);
    fetchOneByOne(single, t, b);
    for (std::size_t i = 0; i < a.sadc.size(); ++i) {
      expectSameRound(a.sadc[i], b.sadc[i],
                      "sadc " + std::to_string(i) + " t=" +
                          std::to_string(second));
      failedRounds += a.sadc[i].ok ? 0 : 1;
      retriedRounds += a.sadc[i].retried ? 1 : 0;
    }
    for (std::size_t i = 0; i < a.tt.size(); ++i) {
      const std::string at = std::to_string(i + 1) + " t=" +
                             std::to_string(second);
      expectSameRound(a.tt[i], b.tt[i], "tt node " + at);
      expectSameRound(a.dn[i], b.dn[i], "dn node " + at);
    }
  }
  // The faults were felt: rounds failed and retried.
  EXPECT_GT(failedRounds, 0);
  EXPECT_GT(retriedRounds, 0);
  EXPECT_GT(batched.client.totalBreakerOpens(), 0);

  const SimTime end = 61.0;
  for (NodeId n = 1; n <= kSlaves; ++n) {
    const std::vector<AttemptRecord> la = batched.attempts.of(n);
    const std::vector<AttemptRecord> lb = single.attempts.of(n);
    ASSERT_EQ(la.size(), lb.size()) << n;
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].at, lb[i].at) << n << " " << i;
      EXPECT_EQ(la[i].daemon, lb[i].daemon) << n << " " << i;
      EXPECT_EQ(la[i].attempt, lb[i].attempt) << n << " " << i;
      EXPECT_EQ(la[i].success, lb[i].success) << n << " " << i;
    }
    EXPECT_EQ(batched.client.breakerState(n, end),
              single.client.breakerState(n, end))
        << n;
    EXPECT_EQ(batched.observer.byNode[n], single.observer.byNode[n]) << n;
  }
  expectSameHealth(batched.client, single.client, end, "end");
  expectSameCounters(batched.client, single.client, "end");
}

// Channel counters and health marks are booked once per batch. Read
// after every batch — under retries (PacketLoss), a collector crash and
// an open breaker (a partition) — they equal the books of the same
// polls made one at a time.
TEST(RpcClientBatch, BatchBooksEqualOneAtATimeAfterEveryBatch) {
  World batched;
  World single;
  bool sawOpenBreaker = false;
  for (int second = 1; second <= 45; ++second) {
    const SimTime t = second;
    batched.engine.runUntil(t);
    single.engine.runUntil(t);
    batched.applyFaults(t);
    single.applyFaults(t);
    Second a;
    Second b;
    fetchBatched(batched, t, a);
    fetchOneByOne(single, t, b);
    const std::string label = "t=" + std::to_string(second);
    expectSameCounters(batched.client, single.client, label);
    expectSameHealth(batched.client, single.client, t + 0.5, label);
    for (NodeId n = 1; n <= kSlaves; ++n) {
      sawOpenBreaker |= batched.client.breakerState(n, t) ==
                        CircuitBreaker::State::kOpen;
    }
  }
  EXPECT_TRUE(sawOpenBreaker);  // node 3's partition trips it
  EXPECT_GT(batched.client.totalRetries(), 0);
  EXPECT_GT(batched.client.totalFastFails(), 0);
  EXPECT_GT(batched.client.transports().channel("sadc-tcp").failedCalls(),
            0);
}

// Two threads batching disjoint nodes through one hub-backed client
// book the same totals as one thread making every batch in turn: each
// batch takes the channel and registry locks once, and no update is
// lost between them.
TEST(RpcClientBatch, ConcurrentBatchesSumToSerialTotals) {
  World concurrent;
  World serial;
  concurrent.client.setObserver(nullptr);  // the recording one is serial
  constexpr NodeId kSplit = kSlaves / 2;
  for (int second = 1; second <= 30; ++second) {
    const SimTime t = second;
    concurrent.engine.runUntil(t);
    serial.engine.runUntil(t);
    Second a;
    Second b;
    std::thread low([&] { fetchBatched(concurrent, t, a, 1, kSplit); });
    std::thread high(
        [&] { fetchBatched(concurrent, t, a, kSplit + 1, kSlaves); });
    low.join();
    high.join();
    fetchBatched(serial, t, b, 1, kSplit);
    fetchBatched(serial, t, b, kSplit + 1, kSlaves);
  }
  EXPECT_GT(serial.client.totalRetries(), 0);
  expectSameCounters(concurrent.client, serial.client, "end");
  expectSameHealth(concurrent.client, serial.client, 31.0, "end");
}

}  // namespace
}  // namespace asdf::rpc
