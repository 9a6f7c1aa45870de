// Asserts the ISSUE's core data-plane claim with the counting
// allocator: once scratch buffers and builder pools are warm, the
// analysis loop — flat kernels plus pooled emission and handle
// retention — performs zero heap allocations per iteration.
//
// This lives in its own test binary (asdf_zero_alloc_test) because it
// links the global operator new/delete replacements from
// bench/alloc_hook.cpp, which must not leak into the main suite.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "analysis/kmeans.h"
#include "analysis/partials.h"
#include "analysis/peercompare.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/fpt_core.h"
#include "core/module.h"
#include "core/registry.h"
#include "core/value.h"
#include "faults/faults.h"
#include "hadoop/cluster.h"
#include "metrics/sadc.h"
#include "modules/modules.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "rpc/daemons.h"
#include "rpc/wire.h"
#include "sim/engine.h"

namespace asdf {
namespace {

constexpr std::size_t kNodes = 50;
constexpr std::size_t kDims = 16;

Matrix makePoints(std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.row(r)[c] = static_cast<double>((r * 31 + c * 7) % 23);
    }
  }
  return m;
}

TEST(ZeroAlloc, KMeansSteadyStateAllocatesNothing) {
  const Matrix points = makePoints(64, 8);
  analysis::KMeansOptions options;
  options.k = 4;
  analysis::KMeansScratch scratch;
  analysis::KMeansResult result;

  // Warm: scratch, result, and centroid storage reach capacity.
  for (int i = 0; i < 3; ++i) {
    Rng rng(42);
    analysis::kmeans(points, options, rng, scratch, result);
  }

  allochook::reset();
  Rng rng(42);
  analysis::kmeans(points, options, rng, scratch, result);
  const allochook::Totals t = allochook::totals();
  EXPECT_EQ(t.allocs, 0u) << "kmeans allocated in steady state";
}

TEST(ZeroAlloc, NearestCentroidsSteadyStateAllocatesNothing) {
  const Matrix centroids = makePoints(8, kDims);
  std::vector<double> x(kDims, 3.0);
  analysis::NearestScratch scratch;
  (void)analysis::nearestCentroids(centroids, x.data(), 3, scratch);  // warm

  allochook::reset();
  for (int i = 0; i < 100; ++i) {
    x[0] = static_cast<double>(i);
    const auto& order = analysis::nearestCentroids(centroids, x.data(), 3,
                                                   scratch);
    ASSERT_EQ(order.size(), 3u);
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
}

TEST(ZeroAlloc, PeerComparisonSteadyStateAllocatesNothing) {
  // One histogram/mean/stddev row per node, flat storage.
  Matrix hists = makePoints(kNodes, kDims);
  Matrix means = makePoints(kNodes, kDims);
  Matrix stddevs(kNodes, kDims);
  for (std::size_t r = 0; r < kNodes; ++r) {
    for (std::size_t c = 0; c < kDims; ++c) stddevs.row(r)[c] = 1.0;
  }
  std::vector<const double*> histRows(kNodes);
  std::vector<const double*> meanRows(kNodes);
  std::vector<const double*> sdRows(kNodes);
  for (std::size_t r = 0; r < kNodes; ++r) {
    histRows[r] = hists.row(r);
    meanRows[r] = means.row(r);
    sdRows[r] = stddevs.row(r);
  }
  std::vector<double> flags(kNodes);
  std::vector<double> scores(kNodes);
  std::vector<double> stateSeq(60);
  for (std::size_t i = 0; i < stateSeq.size(); ++i) {
    stateSeq[i] = static_cast<double>(i % kDims);
  }
  std::vector<double> hist(kDims);
  analysis::PeerScratch scratch;

  // Warm both comparisons once.
  analysis::blackBoxCompareInto(histRows.data(), kNodes, kDims, 40.0, scratch,
                                flags.data(), scores.data());
  analysis::whiteBoxCompareInto(meanRows.data(), sdRows.data(), kNodes, kDims,
                                2.0, scratch, flags.data(), scores.data());

  allochook::reset();
  for (int i = 0; i < 100; ++i) {
    analysis::stateHistogramInto(stateSeq.data(), stateSeq.size(),
                                 hist.data(), kDims);
    analysis::blackBoxCompareInto(histRows.data(), kNodes, kDims, 40.0,
                                  scratch, flags.data(), scores.data());
    analysis::whiteBoxCompareInto(meanRows.data(), sdRows.data(), kNodes,
                                  kDims, 2.0, scratch, flags.data(),
                                  scores.data());
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
}

TEST(ZeroAlloc, GroupReduceSteadyStateAllocatesNothing) {
  // The agg modules' per-window reduce: one unmonitorable member, and
  // both median partials (the white-box shape).
  const Matrix means = makePoints(kNodes, kDims);
  const Matrix stddevs = makePoints(kNodes, kDims);
  std::vector<const double*> meanRows(kNodes);
  std::vector<const double*> sdRows(kNodes);
  std::vector<double> health(kNodes, 0.0);
  for (std::size_t r = 0; r < kNodes; ++r) {
    meanRows[r] = means.row(r);
    sdRows[r] = stddevs.row(r);
  }
  health[7] = 2.0;
  analysis::GroupSummary summary;
  analysis::ReduceScratch scratch;
  std::vector<double> packed;

  for (int i = 0; i < 2; ++i) {
    analysis::reduceGroup(i, meanRows.data(), sdRows.data(), health.data(),
                          kNodes, kDims, summary, scratch);
    summary.pack(packed);
  }

  allochook::reset();
  for (int i = 0; i < 100; ++i) {
    analysis::reduceGroup(i, meanRows.data(), sdRows.data(), health.data(),
                          kNodes, kDims, summary, scratch);
    summary.pack(packed);
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
  EXPECT_EQ(kNodes - 1, summary.survivors());
}

TEST(ZeroAlloc, BuilderEmissionAndRetentionAllocateNothing) {
  core::VecBuilder builder;
  core::VecBuf portSlot;                  // the port's latest sample
  std::vector<core::VecBuf> window(10);   // a consumer's history ring

  // Warm: pool grows to retention depth + 1, vectors reach capacity.
  for (int i = 0; i < 30; ++i) {
    std::vector<double>& v = builder.acquire();
    v.assign(82, static_cast<double>(i));
    portSlot = builder.share();
    window[static_cast<std::size_t>(i) % 10] = portSlot;
  }

  allochook::reset();
  for (int i = 30; i < 130; ++i) {
    std::vector<double>& v = builder.acquire();
    v.assign(82, static_cast<double>(i));
    portSlot = builder.share();
    window[static_cast<std::size_t>(i) % 10] = portSlot;
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
  EXPECT_LE(builder.poolSize(), 12u);
}

// The hl-sync barrier at 1000 nodes, driven the way the hadoop_log
// instances drive it (each node pushes its pooled 8-wide row, then
// drains into a reused vector): once row storage, the producers' pools
// and the drain buffer are warm, push, release and prune allocate
// nothing.
TEST(ZeroAlloc, HadoopLogSyncPushSteadyStateAllocatesNothing) {
  constexpr NodeId kSyncNodes = 1000;
  constexpr long kWarmSeconds = 4;
  constexpr long kMeasuredSeconds = 12;
  modules::HadoopLogSync sync;
  for (NodeId n = 1; n <= kSyncNodes; ++n) sync.registerNode(n);
  std::vector<core::VecBuilder> builders(kSyncNodes);
  modules::HadoopLogSync::Drained drained;
  std::size_t rows = 0;
  const auto second = [&](long s) {
    for (NodeId n = 1; n <= kSyncNodes; ++n) {
      core::VecBuilder& builder = builders[static_cast<std::size_t>(n - 1)];
      builder.acquire().assign(8, static_cast<double>(s * 8 + n));
      sync.push(n, s, builder.share());
      sync.drain(n, drained);
      rows += drained.size();
    }
  };
  for (long s = 0; s < kWarmSeconds; ++s) second(s);

  allochook::reset();
  rows = 0;
  for (long s = kWarmSeconds; s < kWarmSeconds + kMeasuredSeconds; ++s) {
    second(s);
  }
  EXPECT_EQ(allochook::totals().allocs, 0u)
      << "hl-sync push/release/prune allocated in steady state";
  EXPECT_EQ(rows, static_cast<std::size_t>(kSyncNodes * kMeasuredSeconds));
  EXPECT_EQ(sync.droppedSeconds(), 0);
}

// Sim collection hands the node's snapshot over by reference and
// copy-assigns it into the caller's snapshot, whose capacity is reused;
// the sadc module then flattens it in place. Once both buffers are
// warm, a poll allocates nothing. The simulator runs between polls and
// is not counted.
TEST(ZeroAlloc, SimSadcCollectionAllocatesNothing) {
  hadoop::HadoopParams params;
  params.slaveCount = 3;
  sim::SimEngine engine;
  hadoop::Cluster cluster(params, 21, engine);
  cluster.start();
  rpc::RpcHub hub(cluster, 0.0);
  metrics::SadcSnapshot snap;
  std::vector<double> flat;
  std::size_t bytes = 0;
  std::uint64_t allocs = 0;
  std::size_t polls = 0;
  for (int t = 1; t <= 20; ++t) {
    engine.runUntil(t);
    const bool warm = t > 2;
    const std::uint64_t before = allochook::totals().allocs;
    for (NodeId node = 1; node <= params.slaveCount; ++node) {
      ASSERT_TRUE(rpc::collectOne(
          hub, {rpc::CollectKind::kSadc, node, SimTime(t), kNoTime}, &snap,
          bytes));
      metrics::flattenNodeVector(snap, flat);
      if (warm) ++polls;
    }
    if (warm) allocs += allochook::totals().allocs - before;
  }
  EXPECT_EQ(allocs, 0u) << "sim sadc collection allocated in steady state";
  EXPECT_EQ(polls, 54u);
  EXPECT_EQ(flat.size(), metrics::kFlatNodeVectorSize);
  EXPECT_GT(bytes, 0u);
}

// Counts the heap allocations of simulated seconds 6..40 of an idle
// 3-slave cluster (no GridMix): node ticks, heartbeats and, when
// `hog` is set, a CPUHog's tick hook and tracked process. Once the
// snapshot, trace and activity buffers are warm, a tick allocates
// nothing.
std::uint64_t idleClusterTickAllocs(bool hog) {
  hadoop::HadoopParams params;
  params.slaveCount = 3;
  sim::SimEngine engine;
  hadoop::Cluster cluster(params, 31, engine);
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kCpuHog;
  spec.node = 2;
  spec.startTime = 2.0;
  faults::FaultInjector injector(cluster, spec);
  cluster.start();
  if (hog) injector.arm();
  engine.runUntil(5.0);
  allochook::reset();
  for (int t = 6; t <= 40; ++t) engine.runUntil(t);
  return allochook::totals().allocs;
}

TEST(ZeroAlloc, IdleClusterTickAllocatesNothing) {
  EXPECT_EQ(idleClusterTickAllocs(/*hog=*/false), 0u)
      << "idle cluster ticks allocated in steady state";
}

TEST(ZeroAlloc, ClusterTickWithFaultHookAllocatesNothing) {
  EXPECT_EQ(idleClusterTickAllocs(/*hog=*/true), 0u)
      << "cluster ticks with a CPUHog hook allocated in steady state";
}

// A collector-shaped periodic module: exclusive on its node's domain,
// and on "hl-sync" too when "sync" is set, writing one scalar a run.
class DomainPulse final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    out_ = ctx.addOutput("out");
    ctx.requestPeriodic(1.0);
    ctx.requestExclusive("node" + ctx.param("node"));
    if (ctx.param("sync") == "1") ctx.requestExclusive("hl-sync");
  }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    ctx.write(out_, ctx.now());
  }

 private:
  int out_ = -1;
};

class ScalarSink final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override { ctx.setInputTrigger(1); }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    sum_ += core::asScalar(ctx.input("a", 0).value);
  }

 private:
  double sum_ = 0.0;
};

// Every collector level declares node<k> and hl-sync domains, so each
// tick's wavefront groups its runs by domain. Once the dispatcher's
// buffers are warm, that grouping — and the whole wavefront — allocates
// nothing.
TEST(ZeroAlloc, WavefrontWithExclusiveDomainsAllocatesNothing) {
  core::ModuleRegistry registry;
  registry.registerType("pulse", [] { return std::make_unique<DomainPulse>(); });
  registry.registerType("sink", [] { return std::make_unique<ScalarSink>(); });
  std::string config;
  for (std::size_t k = 1; k <= kNodes; ++k) {
    const std::string n = std::to_string(k);
    config += "[pulse]\nid = p" + n + "\nnode = " + n + "\n";
    config += "[pulse]\nid = q" + n + "\nnode = " + n + "\nsync = 1\n";
    config += "[sink]\nid = s" + n + "\ninput[a] = p" + n + ".out\n";
  }
  sim::SimEngine engine;
  core::FptCore fpt(engine, core::Environment{}, &registry);
  fpt.configureFromText(config);

  engine.runUntil(20.0);
  const std::uint64_t runsBefore = fpt.totalRuns();
  allochook::reset();
  engine.runUntil(60.0);
  EXPECT_EQ(allochook::totals().allocs, 0u)
      << "wavefront dispatch with exclusivity domains allocated";
  EXPECT_EQ(fpt.totalRuns() - runsBefore, 40u * 3u * kNodes);
}

// The collector level of the combined pipeline as one sibling batch:
// sadc instances glued into one exclusivity group (hadoop_log's
// "hl-sync" domain glues them in the combined pipeline; here a pulse
// per node does) run as one runBatch per tick — one
// RpcClient::fetchBatch and one hub collect() for every node. Once
// warm, the batched wavefront — dispatch, fetch batch, collection and
// publishing — allocates nothing, and neither does the idle simulator
// ticking between polls.
TEST(ZeroAlloc, WarmBatchedSadcWavefrontAllocatesNothing) {
  constexpr int kSlaves = 8;
  core::ModuleRegistry registry;
  modules::registerBuiltinModules(&registry);
  registry.registerType("pulse",
                        [] { return std::make_unique<DomainPulse>(); });
  std::string config;
  for (int k = 1; k <= kSlaves; ++k) {
    const std::string n = std::to_string(k);
    config += "[sadc]\nid = sadc" + n + "\nnode = " + n + "\n";
  }
  for (int k = 1; k <= kSlaves; ++k) {
    const std::string n = std::to_string(k);
    config += "[pulse]\nid = q" + n + "\nnode = " + n + "\nsync = 1\n";
  }
  hadoop::HadoopParams params;
  params.slaveCount = kSlaves;
  sim::SimEngine engine;
  hadoop::Cluster cluster(params, 41, engine);
  cluster.start();
  rpc::RpcHub hub(cluster, 0.0);
  core::Environment env;
  env.provide("rpc", &hub);
  core::FptCore fpt(engine, env, &registry);
  fpt.configureFromText(config);

  engine.runUntil(30.0);
  const std::uint64_t runsBefore = fpt.totalRuns();
  const long callsBefore = hub.transports().channel("sadc-tcp").calls();
  allochook::reset();
  engine.runUntil(140.0);
  EXPECT_EQ(allochook::totals().allocs, 0u)
      << "a warm batched sadc wavefront allocated";
  EXPECT_EQ(fpt.totalRuns() - runsBefore, 110u * 2u * kSlaves);
  EXPECT_EQ(hub.transports().channel("sadc-tcp").calls() - callsBefore,
            110 * kSlaves);
}

// The net-plane claim (DESIGN.md §15): once a connection's decode
// buffer, scratch frame and outbound queue are warm, a full
// request -> decode -> dispatch -> respond exchange performs zero heap
// allocations on the server — the hot path reuses the per-connection
// scratch Frame, appends responses into the retained outbound buffer,
// and the uncorked single-frame path writes straight from a stack
// header + payload iovec pair.
TEST(ZeroAlloc, TcpServerSteadyStateExchangeAllocatesNothing) {
  net::EventLoop loop;
  net::TcpServer server(loop, 0);
  // Pre-built response so the handler itself is allocation-free; real
  // daemons reuse encoders the same way.
  rpc::Encoder response;
  response.putDouble(1234.5);
  response.putString("steady-state");
  server.onFrame([&response](net::TcpServer::Connection& conn,
                             const net::Frame&) {
    conn.send(net::MsgType::kSadcData, response);
  });
  std::thread loopThread([&loop] { loop.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const std::vector<std::uint8_t> request =
      net::encodeFrame(net::MsgType::kStats, nullptr, 0);
  net::FrameDecoder decoder;
  net::Frame reply;
  std::uint8_t chunk[4096];
  // The client side of the exchange loop is allocation-free too once
  // the decoder buffer and reply payload are at capacity, so the
  // global counter isolates the server path.
  const auto exchange = [&]() -> bool {
    std::size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::write(fd, request.data() + off,
                                request.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    while (!decoder.next(reply)) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0 || !decoder.feed(chunk, static_cast<std::size_t>(n))) {
        return false;
      }
    }
    return reply.type == net::MsgType::kSadcData;
  };

  // Warm: connection buffers, scratch frame, decoder, reply payload.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(exchange());

  allochook::reset();
  int ok = 0;
  for (int i = 0; i < 200; ++i) ok += exchange() ? 1 : 0;
  const allochook::Totals t = allochook::totals();
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(t.allocs, 0u)
      << "accept->dispatch->respond allocated in steady state";

  ::close(fd);
  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.framesServed(), 250);
}

}  // namespace
}  // namespace asdf
