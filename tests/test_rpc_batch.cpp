// RpcClient::fetchBatch against one fetch at a time: two identical
// simulated worlds under monitoring faults (crash, hang, slowdown,
// partition) and PacketLoss on the fault-tolerant client, one fetching
// each second's rounds as batches — sadc for every node, then
// TaskTracker for every node, then DataNode for the nodes whose
// TaskTracker round succeeded, as the collector modules do — and the
// other one round at a time in the same per-node order. Every per-node
// outcome must be the same: fetched values, attempt logs, breakers,
// the health registry, channel counters and observer samples.
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

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
};

/// One second's outcomes: per round, in the same order in both worlds.
struct Second {
  std::vector<Fetched<metrics::SadcSnapshot>> sadc =
      std::vector<Fetched<metrics::SadcSnapshot>>(kSlaves + 1);
  std::vector<Fetched<Rows>> tt = std::vector<Fetched<Rows>>(kSlaves);
  std::vector<Fetched<Rows>> dn = std::vector<Fetched<Rows>>(kSlaves);
};

void fetchBatched(World& w, SimTime t, Second& out) {
  std::vector<CollectRequest> requests;
  std::vector<Fetched<metrics::SadcSnapshot>*> sadcOuts;
  for (NodeId n = 1; n <= kSlaves; ++n) {
    requests.push_back({CollectKind::kSadc, n, t, kNoTime});
    sadcOuts.push_back(&out.sadc[n - 1]);
  }
  requests.push_back({CollectKind::kSadc, kRepeated, t, kNoTime});
  sadcOuts.push_back(&out.sadc[kSlaves]);
  w.client.fetchBatch<metrics::SadcSnapshot>(requests, sadcOuts);

  requests.clear();
  std::vector<Fetched<Rows>*> rowOuts;
  for (NodeId n = 1; n <= kSlaves; ++n) {
    requests.push_back({CollectKind::kTt, n, t, t});
    rowOuts.push_back(&out.tt[n - 1]);
  }
  w.client.fetchBatch<Rows>(requests, rowOuts);
  requests.clear();
  rowOuts.clear();
  for (NodeId n = 1; n <= kSlaves; ++n) {
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
    const std::vector<AttemptRecord>& la = batched.client.attemptLog(n);
    const std::vector<AttemptRecord>& lb = single.client.attemptLog(n);
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
    for (const Daemon d : {Daemon::kSadc, Daemon::kHadoopLog}) {
      EXPECT_EQ(batched.client.health().channelHealth(n, d),
                single.client.health().channelHealth(n, d))
          << n;
      EXPECT_EQ(batched.client.health().staleness(n, d, end),
                single.client.health().staleness(n, d, end))
          << n;
    }
    EXPECT_EQ(batched.observer.byNode[n], single.observer.byNode[n]) << n;
  }
  EXPECT_EQ(batched.client.totalRounds(), single.client.totalRounds());
  EXPECT_EQ(batched.client.totalRetries(), single.client.totalRetries());
  EXPECT_EQ(batched.client.totalFailedRounds(),
            single.client.totalFailedRounds());
  EXPECT_EQ(batched.client.totalFastFails(), single.client.totalFastFails());
  EXPECT_EQ(batched.client.totalBreakerOpens(),
            single.client.totalBreakerOpens());
  const auto ca = batched.client.transports().channels();
  const auto cb = single.client.transports().channels();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i]->name(), cb[i]->name());
    EXPECT_EQ(ca[i]->connects(), cb[i]->connects()) << ca[i]->name();
    EXPECT_EQ(ca[i]->calls(), cb[i]->calls()) << ca[i]->name();
    EXPECT_EQ(ca[i]->failedCalls(), cb[i]->failedCalls()) << ca[i]->name();
    EXPECT_EQ(ca[i]->totalCallBytes(), cb[i]->totalCallBytes())
        << ca[i]->name();
  }
}

}  // namespace
}  // namespace asdf::rpc
