// Data-plane microbench: copy-on-write payloads vs the legacy
// deep-copy idioms, on the fan-out shape the real pipeline has:
//
//   N sources  --(D-dim metric vector, 1 Hz)-->  N x F window stages
//   N window digests --> one peer-comparison fan-in (median + L1)
//
// Two sections, each an in-binary A/B. The *cow* variant uses the
// post-refactor idioms: pooled VecBuilder emissions, VecBuf handle
// retention for window history, row-pointer views plus the
// scratch-based flat kernels. The *legacy* variant reproduces the
// pre-refactor data plane: a freshly allocated std::vector per
// emission, a deep copy per retained window sample, and the
// allocating vector-of-vectors comparison kernels. Same arithmetic —
// the checksum must match bit-for-bit across variants (the binary
// exits non-zero if it does not).
//
//   plane     drives the propagation/retention/analysis path directly
//             (no scheduler), so the numbers isolate the data plane:
//             payload bytes moved, allocations, kernel dispatch. This
//             is the headline samples/sec and the --min-speedup gate.
//   pipeline  the same shape through fpt-core with the chosen
//             executor: end-to-end tick cost including scheduling,
//             which bounds how much of the plane win survives in situ.
//
// Metrics per variant: wall seconds, samples/sec (payload writes +
// deliveries per wall second), heap allocations and kB per tick (via
// the counting allocator in alloc_hook.cpp, measured after a warmup
// so pools and container capacities are steady), plus the COW
// clone/materialize counters. --json emits a machine-readable
// summary; --min-speedup makes the binary fail when the plane
// cow/legacy speedup falls below a floor (the CI bench-smoke gate).
//
// The default fan-out of 8 models a combined black-box + white-box
// deployment where a node's streams feed analysis stages (knn, mavg
// mean/stddev), history buffers, and csv/print sinks across both
// chains.
//
// Flags: --nodes=50 --fanout=8 --dims=82 --window=60 --ticks=2000
//        --warmup=100 --threads=1 --json --min-speedup=0
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "analysis/peercompare.h"
#include "bench_util.h"
#include "common/strings.h"
#include "core/fpt_core.h"
#include "core/module.h"
#include "core/registry.h"
#include "sim/engine.h"

namespace {

using namespace asdf;

std::uint64_t g_writes = 0;
double g_checksum = 0.0;

/// Deterministic synthetic metric: varies per node, dimension, tick.
double metricValue(int node, std::size_t dim, long tick) {
  return static_cast<double>((node * 31 + static_cast<int>(dim) * 7 +
                              tick * 13) % 97);
}

/// Fills a row with metricValue(node, 0..dims-1, tick) incrementally
/// (one add + conditional subtract per element instead of a modulo),
/// so synthesis cost does not drown out the data-plane cost under
/// measurement. Bit-identical to calling metricValue per element.
void fillRow(double* dst, std::size_t dims, int node, long tick) {
  long x = static_cast<long>(metricValue(node, 0, tick));
  for (std::size_t d = 0; d < dims; ++d) {
    dst[d] = static_cast<double>(x);
    x += 7;
    if (x >= 97) x -= 97;
  }
}

/// Stage 1: emits a D-dim vector every tick.
class DpSource final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    dims_ = static_cast<std::size_t>(ctx.intParam("dims", 82));
    node_ = static_cast<int>(ctx.intParam("node", 0));
    legacy_ = ctx.intParam("legacy", 0) != 0;
    out_ = ctx.addOutput("output0", strformat("slave%d", node_));
    ctx.requestPeriodic(1.0);
  }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    ++tick_;
    ++g_writes;
    if (legacy_) {
      // Pre-refactor: a fresh heap vector per emission.
      std::vector<double> v(dims_);
      fillRow(v.data(), dims_, node_, tick_);
      ctx.write(out_, std::move(v));
    } else {
      std::vector<double>& v = builder_.acquire();
      v.resize(dims_);
      fillRow(v.data(), dims_, node_, tick_);
      ctx.write(out_, builder_.share());
    }
  }

 private:
  std::size_t dims_ = 82;
  int node_ = 0;
  long tick_ = 0;
  bool legacy_ = false;
  core::VecBuilder builder_;
  int out_ = -1;
};

/// Stage 2: retains the last W input payloads and emits the per-dim
/// window mean each tick (incremental sums; the retention policy is
/// what differs — deep copy vs shared handle).
class DpWindow final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    window_ = static_cast<std::size_t>(ctx.intParam("window", 60));
    legacy_ = ctx.intParam("legacy", 0) != 0;
    out_ = ctx.addOutput("mean", ctx.inputOrigin("input", 0));
    ctx.setInputTrigger(1);
  }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    if (!ctx.inputFresh("input", 0)) return;
    const auto& vec = core::asVector(ctx.input("input", 0).value);
    if (sums_.empty()) {
      sums_.assign(vec.size(), 0.0);
      if (legacy_) {
        legacyRing_.resize(window_);
      } else {
        ring_.resize(window_);
      }
    }
    const std::size_t slot = count_ % window_;
    if (count_ >= window_) {
      const double* evicted =
          legacy_ ? legacyRing_[slot].data() : ring_[slot].data();
      for (std::size_t d = 0; d < sums_.size(); ++d) sums_[d] -= evicted[d];
    }
    if (legacy_) {
      // Pre-refactor retention: a private deep copy per sample.
      legacyRing_[slot] = vec.toVector();
    } else {
      ring_[slot] = vec;  // handle copy; payload stays shared
    }
    for (std::size_t d = 0; d < sums_.size(); ++d) sums_[d] += vec[d];
    ++count_;
    const auto filled = static_cast<double>(std::min(count_, window_));
    ++g_writes;
    if (legacy_) {
      std::vector<double> mean(sums_.size());
      for (std::size_t d = 0; d < sums_.size(); ++d) {
        mean[d] = sums_[d] / filled;
      }
      ctx.write(out_, std::move(mean));
    } else {
      std::vector<double>& mean = builder_.acquire();
      mean.resize(sums_.size());
      for (std::size_t d = 0; d < sums_.size(); ++d) {
        mean[d] = sums_[d] / filled;
      }
      ctx.write(out_, builder_.share());
    }
  }

 private:
  std::size_t window_ = 60;
  std::size_t count_ = 0;
  bool legacy_ = false;
  std::vector<double> sums_;
  std::vector<core::VecBuf> ring_;
  std::vector<std::vector<double>> legacyRing_;
  core::VecBuilder builder_;
  int out_ = -1;
};

/// Stage 3: cross-node peer comparison over the window means (the
/// analysis_bb decision rule: L1 distance to the component-wise
/// median).
class DpPeer final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    threshold_ = ctx.numParam("threshold", 40.0);
    legacy_ = ctx.intParam("legacy", 0) != 0;
    for (int i = 0;; ++i) {
      const std::string name = strformat("x%d", i);
      if (ctx.inputWidth(name) == 0) break;
      inputs_.push_back(name);
    }
    outFlags_ = ctx.addOutput("flags");
    outScores_ = ctx.addOutput("scores");
    ctx.setInputTrigger(static_cast<int>(inputs_.size()));
  }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    for (const auto& name : inputs_) {
      if (!ctx.inputHasData(name, 0)) return;
    }
    const std::size_t n = inputs_.size();
    g_writes += 2;
    if (legacy_) {
      // Pre-refactor: materialize rows, allocating comparison kernel.
      std::vector<std::vector<double>> rows;
      rows.reserve(n);
      for (const auto& name : inputs_) {
        rows.push_back(core::asVector(ctx.input(name, 0).value).toVector());
      }
      analysis::PeerComparisonResult result =
          analysis::blackBoxCompare(rows, threshold_);
      for (double f : result.flags) g_checksum += f;
      for (double s : result.scores) g_checksum += s;
      ctx.write(outFlags_, std::move(result.flags));
      ctx.write(outScores_, std::move(result.scores));
    } else {
      rowPtrs_.resize(n);
      std::size_t dims = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto& row = core::asVector(ctx.input(inputs_[i], 0).value);
        rowPtrs_[i] = row.data();
        dims = row.size();
      }
      std::vector<double>& flags = flagsBuilder_.acquire();
      std::vector<double>& scores = scoresBuilder_.acquire();
      flags.resize(n);
      scores.resize(n);
      analysis::blackBoxCompareInto(rowPtrs_.data(), n, dims, threshold_,
                                    scratch_, flags.data(), scores.data());
      for (double f : flags) g_checksum += f;
      for (double s : scores) g_checksum += s;
      ctx.write(outFlags_, flagsBuilder_.share());
      ctx.write(outScores_, scoresBuilder_.share());
    }
  }

 private:
  double threshold_ = 40.0;
  bool legacy_ = false;
  std::vector<std::string> inputs_;
  std::vector<const double*> rowPtrs_;
  analysis::PeerScratch scratch_;
  core::VecBuilder flagsBuilder_;
  core::VecBuilder scoresBuilder_;
  int outFlags_ = -1;
  int outScores_ = -1;
};

// ---------------------------------------------------------------------------
// Direct-drive plane benchmark (no scheduler)

struct PlaneResult {
  double wallSeconds = 0.0;
  double samplesPerSec = 0.0;
  double allocsPerTick = 0.0;
  double allocKbPerTick = 0.0;
  double checksum = 0.0;
};

/// One tick, mirroring the real pipeline's shape (sadc frame -->
/// ibuffer/mavg retention --> knn digest --> analysis_bb peer
/// comparison): each node produces a D-dim frame, F consumers retain
/// it in a W-deep window, a per-node scalar digest (frame mean) is
/// computed from the retained payload, and the peer comparison runs
/// over the N scalar digests.
///
/// legacy: fresh vector per frame, deep copy per retained sample,
///         vector-of-vectors rows plus the allocating comparison
///         kernel. cow: pooled emission, handle retention, row-pointer
///         views plus the scratch-based flat kernel. The digest and
///         comparison arithmetic is identical, so the checksums must
///         match bit-for-bit.
PlaneResult runPlane(bool legacy, int nodesN, int fanoutN, int dimsN,
                     int windowN, int warmup, int ticks, double threshold) {
  const auto nodes = static_cast<std::size_t>(nodesN);
  const auto fanout = static_cast<std::size_t>(fanoutN);
  const auto dims = static_cast<std::size_t>(dimsN);
  const auto window = static_cast<std::size_t>(windowN);

  // Per-node production state.
  std::vector<core::VecBuilder> builders(nodes);
  // Per node x consumer retention rings.
  std::vector<std::vector<core::VecBuf>> rings;
  std::vector<std::vector<std::vector<double>>> legacyRings;
  if (legacy) {
    legacyRings.assign(nodes * fanout, {});
    for (auto& ring : legacyRings) ring.resize(window);
  } else {
    rings.assign(nodes * fanout, {});
    for (auto& ring : rings) ring.resize(window);
  }
  // Scalar digest per node (knn's role: frame -> one number).
  std::vector<double> digests(nodes, 0.0);
  std::vector<const double*> rowPtrs(nodes);
  analysis::PeerScratch scratch;
  core::VecBuilder flagsBuilder;
  core::VecBuilder scoresBuilder;

  double checksum = 0.0;
  std::uint64_t samples = 0;
  auto start = std::chrono::steady_clock::now();

  for (long tick = 1; tick <= warmup + ticks; ++tick) {
    if (tick == warmup + 1) {
      // Steady state reached: measure from here.
      checksum = 0.0;
      samples = 0;
      allochook::reset();
      start = std::chrono::steady_clock::now();
    }
    const std::size_t slot = static_cast<std::size_t>(tick) % window;
    for (std::size_t i = 0; i < nodes; ++i) {
      // Produce this node's frame.
      core::VecBuf payload;
      if (legacy) {
        std::vector<double> v(dims);
        fillRow(v.data(), dims, static_cast<int>(i), tick);
        payload = core::VecBuf(std::move(v));
      } else {
        std::vector<double>& v = builders[i].acquire();
        v.resize(dims);
        fillRow(v.data(), dims, static_cast<int>(i), tick);
        payload = builders[i].share();
      }
      // Per-node digest (knn's role: frame -> one number). A cheap
      // deterministic selection keeps the digest out of the measured
      // data-plane cost; arithmetic is identical in both variants.
      digests[i] = payload[static_cast<std::size_t>(tick) % dims];
      ++samples;
      // Fan out to the window consumers.
      for (std::size_t j = 0; j < fanout; ++j) {
        if (legacy) {
          legacyRings[i * fanout + j][slot] = payload.toVector();
        } else {
          rings[i * fanout + j][slot] = payload;
        }
        ++samples;
      }
    }
    // Peer comparison over the nodes' scalar digests.
    samples += 2;
    if (legacy) {
      std::vector<std::vector<double>> rows;
      rows.reserve(nodes);
      for (std::size_t i = 0; i < nodes; ++i) {
        rows.emplace_back(1, digests[i]);
      }
      const analysis::PeerComparisonResult result =
          analysis::blackBoxCompare(rows, threshold);
      for (double f : result.flags) checksum += f;
      for (double s : result.scores) checksum += s;
    } else {
      for (std::size_t i = 0; i < nodes; ++i) rowPtrs[i] = &digests[i];
      std::vector<double>& flags = flagsBuilder.acquire();
      std::vector<double>& scores = scoresBuilder.acquire();
      flags.resize(nodes);
      scores.resize(nodes);
      analysis::blackBoxCompareInto(rowPtrs.data(), nodes, 1, threshold,
                                    scratch, flags.data(), scores.data());
      for (double f : flags) checksum += f;
      for (double s : scores) checksum += s;
      flagsBuilder.share();
      scoresBuilder.share();
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const allochook::Totals heap = allochook::totals();

  PlaneResult out;
  out.wallSeconds = wall;
  out.samplesPerSec = static_cast<double>(samples) / wall;
  out.allocsPerTick = static_cast<double>(heap.allocs) / ticks;
  out.allocKbPerTick = static_cast<double>(heap.bytes) / 1024.0 / ticks;
  out.checksum = checksum;
  return out;
}

// ---------------------------------------------------------------------------
// End-to-end pipeline benchmark (through fpt-core)

std::string buildConfig(int nodes, int fanout, int dims, int window,
                        bool legacy) {
  std::string config;
  std::string peerInputs;
  for (int i = 0; i < nodes; ++i) {
    config += strformat("[dp_src]\nid = src%d\nnode = %d\ndims = %d\n"
                        "legacy = %d\n\n",
                        i, i, dims, legacy ? 1 : 0);
    for (int j = 0; j < fanout; ++j) {
      config += strformat(
          "[dp_win]\nid = w%d_%d\nwindow = %d\nlegacy = %d\n"
          "input[input] = src%d.output0\n\n",
          i, j, window, legacy ? 1 : 0, i);
    }
    peerInputs += strformat("input[x%d] = w%d_0.mean\n", i, i);
  }
  config += strformat("[dp_peer]\nid = peer\nlegacy = %d\n", legacy ? 1 : 0);
  config += peerInputs;
  return config;
}

struct VariantResult {
  double wallSeconds = 0.0;
  double samplesPerSec = 0.0;
  double allocsPerTick = 0.0;
  double allocKbPerTick = 0.0;
  std::uint64_t cowClones = 0;
  double materializedKbPerTick = 0.0;
  double checksum = 0.0;
};

VariantResult runVariant(bool legacy, int nodes, int fanout, int dims,
                         int window, int warmup, int ticks, int threads) {
  core::ModuleRegistry registry;
  registry.registerType("dp_src", [] { return std::make_unique<DpSource>(); });
  registry.registerType("dp_win", [] { return std::make_unique<DpWindow>(); });
  registry.registerType("dp_peer", [] { return std::make_unique<DpPeer>(); });

  sim::SimEngine engine;
  core::FptCore fpt(engine, core::Environment{}, &registry);
  fpt.setExecutor(core::makeExecutor(threads));
  fpt.configureFromText(buildConfig(nodes, fanout, dims, window, legacy));

  // Warmup: fill windows, grow pools and container capacities to their
  // steady state, then measure from a clean slate.
  engine.runUntil(warmup);
  g_writes = 0;
  g_checksum = 0.0;
  core::dataPlaneCounters().reset();
  allochook::reset();

  const auto start = std::chrono::steady_clock::now();
  engine.runUntil(warmup + ticks);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const allochook::Totals heap = allochook::totals();
  const auto& cow = core::dataPlaneCounters();

  VariantResult out;
  out.wallSeconds = wall;
  out.samplesPerSec = static_cast<double>(g_writes) / wall;
  out.allocsPerTick = static_cast<double>(heap.allocs) / ticks;
  out.allocKbPerTick = static_cast<double>(heap.bytes) / 1024.0 / ticks;
  out.cowClones = cow.cowClones.load(std::memory_order_relaxed);
  out.materializedKbPerTick =
      static_cast<double>(
          cow.materializedBytes.load(std::memory_order_relaxed)) /
      1024.0 / ticks;
  out.checksum = g_checksum;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"nodes", "fanout", "dims", "window", "ticks",
                       "warmup", "threads", "json", "min-speedup"});
  const int nodes = static_cast<int>(bench::flagInt(argc, argv, "nodes", 50));
  const int fanout = static_cast<int>(bench::flagInt(argc, argv, "fanout", 8));
  const int dims = static_cast<int>(bench::flagInt(argc, argv, "dims", 82));
  const int window =
      static_cast<int>(bench::flagInt(argc, argv, "window", 60));
  const int ticks =
      static_cast<int>(bench::flagInt(argc, argv, "ticks", 2000));
  const int warmup =
      static_cast<int>(bench::flagInt(argc, argv, "warmup", 100));
  const int threads =
      static_cast<int>(bench::flagInt(argc, argv, "threads", 1));
  const bool json = bench::flagPresent(argc, argv, "json");
  const double minSpeedup = bench::flagDouble(argc, argv, "min-speedup", 0.0);

  const double threshold = 40.0;

  // Section 1: the plane itself (no scheduler). Headline numbers.
  const PlaneResult planeLegacy = runPlane(
      true, nodes, fanout, dims, window, warmup, ticks, threshold);
  const PlaneResult planeCow = runPlane(
      false, nodes, fanout, dims, window, warmup, ticks, threshold);
  const double planeSpeedup = planeCow.samplesPerSec / planeLegacy.samplesPerSec;

  // Section 2: the same shape end to end through fpt-core.
  const VariantResult pipeLegacy = runVariant(
      true, nodes, fanout, dims, window, warmup, ticks, threads);
  const VariantResult pipeCow = runVariant(
      false, nodes, fanout, dims, window, warmup, ticks, threads);
  const double pipeSpeedup = pipeCow.samplesPerSec / pipeLegacy.samplesPerSec;

  if (json) {
    std::printf(
        "{\n"
        "  \"bench\": \"data_plane\",\n"
        "  \"nodes\": %d, \"fanout\": %d, \"dims\": %d, \"window\": %d,\n"
        "  \"plane\": {\n"
        "    \"variants\": [\n"
        "      {\"name\": \"legacy\", \"samples_per_sec\": %.0f, "
        "\"allocs_per_tick\": %.1f, \"alloc_kb_per_tick\": %.1f},\n"
        "      {\"name\": \"cow\", \"samples_per_sec\": %.0f, "
        "\"allocs_per_tick\": %.1f, \"alloc_kb_per_tick\": %.1f}\n"
        "    ],\n"
        "    \"speedup\": %.2f\n"
        "  },\n"
        "  \"pipeline\": {\n"
        "    \"variants\": [\n"
        "      {\"name\": \"legacy\", \"samples_per_sec\": %.0f, "
        "\"allocs_per_tick\": %.1f, \"alloc_kb_per_tick\": %.1f, "
        "\"cow_clones\": %llu, \"materialized_kb_per_tick\": %.1f},\n"
        "      {\"name\": \"cow\", \"samples_per_sec\": %.0f, "
        "\"allocs_per_tick\": %.1f, \"alloc_kb_per_tick\": %.1f, "
        "\"cow_clones\": %llu, \"materialized_kb_per_tick\": %.1f}\n"
        "    ],\n"
        "    \"speedup\": %.2f\n"
        "  }\n"
        "}\n",
        nodes, fanout, dims, window, planeLegacy.samplesPerSec,
        planeLegacy.allocsPerTick, planeLegacy.allocKbPerTick,
        planeCow.samplesPerSec, planeCow.allocsPerTick,
        planeCow.allocKbPerTick, planeSpeedup, pipeLegacy.samplesPerSec,
        pipeLegacy.allocsPerTick, pipeLegacy.allocKbPerTick,
        static_cast<unsigned long long>(pipeLegacy.cowClones),
        pipeLegacy.materializedKbPerTick, pipeCow.samplesPerSec,
        pipeCow.allocsPerTick, pipeCow.allocKbPerTick,
        static_cast<unsigned long long>(pipeCow.cowClones),
        pipeCow.materializedKbPerTick, pipeSpeedup);
  } else {
    std::printf("data plane: %d nodes x %d consumers, %d dims, window %d, "
                "%d ticks (+%d warmup)\n\n",
                nodes, fanout, dims, window, ticks, warmup);
    std::printf("plane (direct drive, no scheduler)\n");
    bench::printRule();
    std::printf("%-8s %10s %14s %13s %14s\n", "variant", "wall (s)",
                "samples/sec", "allocs/tick", "alloc kB/tick");
    bench::printRule();
    const auto planeRow = [](const char* name, const PlaneResult& r) {
      std::printf("%-8s %10.3f %14.0f %13.1f %14.1f\n", name, r.wallSeconds,
                  r.samplesPerSec, r.allocsPerTick, r.allocKbPerTick);
    };
    planeRow("legacy", planeLegacy);
    planeRow("cow", planeCow);
    bench::printRule();
    std::printf("plane speedup: %.2fx\n\n", planeSpeedup);

    std::printf("pipeline (end to end through fpt-core, %d thread%s)\n",
                threads, threads == 1 ? "" : "s");
    bench::printRule();
    std::printf("%-8s %10s %14s %13s %14s %9s %14s\n", "variant", "wall (s)",
                "samples/sec", "allocs/tick", "alloc kB/tick", "clones",
                "mat. kB/tick");
    bench::printRule();
    const auto pipeRow = [](const char* name, const VariantResult& r) {
      std::printf("%-8s %10.3f %14.0f %13.1f %14.1f %9llu %14.1f\n", name,
                  r.wallSeconds, r.samplesPerSec, r.allocsPerTick,
                  r.allocKbPerTick,
                  static_cast<unsigned long long>(r.cowClones),
                  r.materializedKbPerTick);
    };
    pipeRow("legacy", pipeLegacy);
    pipeRow("cow", pipeCow);
    bench::printRule();
    std::printf("pipeline speedup: %.2fx (scheduling overhead is shared by "
                "both variants and bounds the ratio)\n",
                pipeSpeedup);
  }

  if (planeLegacy.checksum != planeCow.checksum) {
    std::fprintf(stderr,
                 "DIVERGENCE: plane legacy checksum %.17g != cow %.17g\n",
                 planeLegacy.checksum, planeCow.checksum);
    return 1;
  }
  if (pipeLegacy.checksum != pipeCow.checksum) {
    std::fprintf(stderr,
                 "DIVERGENCE: pipeline legacy checksum %.17g != cow %.17g\n",
                 pipeLegacy.checksum, pipeCow.checksum);
    return 1;
  }
  if (minSpeedup > 0.0 && planeSpeedup < minSpeedup) {
    std::fprintf(stderr,
                 "REGRESSION: plane speedup %.2fx below floor %.2fx\n",
                 planeSpeedup, minSpeedup);
    return 1;
  }
  return 0;
}
