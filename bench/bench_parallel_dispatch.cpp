// Serial vs thread-pool wavefront dispatch on a wide collection DAG.
//
// The paper's fpt-core gives every module its own thread precisely so
// that slow, blocking data collection (RPC polls of remote daemons)
// overlaps. This bench reproduces that shape: a wide level of
// collector modules whose run() blocks for a fixed poll latency (as a
// real sadc/hadoop_log poll would block on the network), feeding a
// small analysis fan-in. With the SerialExecutor the poll latencies
// add up; with a ThreadPoolExecutor they overlap, so wall-clock time
// shrinks by roughly the thread count even on a single core.
//
// Flags: --collectors=50 --ticks=20 --poll-ms=2 --threads=4 --json
//
// Prints one row per executor plus the pool/serial speedup; exits
// non-zero if results diverge across executors (they must not: the
// level barrier makes the analysis input set executor-independent).
// --json emits the same data machine-readably for
// scripts/check_bench_regression.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "core/fpt_core.h"
#include "core/module.h"
#include "core/registry.h"
#include "sim/engine.h"

namespace {

using namespace asdf;

/// A collector whose poll blocks like a remote RPC, then emits a
/// deterministic scalar.
class SlowCollector final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    pollMs_ = ctx.numParam("poll_ms", 2.0);
    value_ = ctx.numParam("value", 1.0);
    out_ = ctx.addOutput("output0");
    ctx.requestPeriodic(1.0);
  }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(pollMs_));
    ++polls_;
    ctx.write(out_, value_ * static_cast<double>(polls_));
  }

 private:
  double pollMs_ = 2.0;
  double value_ = 1.0;
  long polls_ = 0;
  int out_ = -1;
};

/// Sums every fresh input; the checksum proves all executors fed the
/// analysis the same data.
class SummingAnalysis final : public core::Module {
 public:
  static double checksum;
  void init(core::ModuleContext& ctx) override {
    ctx.setInputTrigger(static_cast<int>(ctx.intParam("trigger", 1)));
  }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    for (const auto& name : ctx.inputNames()) {
      for (std::size_t i = 0; i < ctx.inputWidth(name); ++i) {
        if (ctx.inputFresh(name, i)) {
          checksum += core::asScalar(ctx.input(name, i).value);
        }
      }
    }
  }
};

double SummingAnalysis::checksum = 0.0;

std::string buildConfig(int collectors, double pollMs) {
  std::string config;
  std::string analysisInputs;
  for (int i = 0; i < collectors; ++i) {
    config += strformat(
        "[collector]\nid = c%d\npoll_ms = %.3f\nvalue = %d\n\n", i, pollMs,
        i + 1);
    analysisInputs += strformat("input[x%d] = c%d.output0\n", i, i);
  }
  config += strformat("[analysis]\nid = sum\ntrigger = %d\n", collectors);
  config += analysisInputs;
  return config;
}

struct RunResult {
  double wallSeconds = 0.0;
  double checksum = 0.0;
  std::uint64_t runs = 0;
};

RunResult runWith(std::unique_ptr<core::Executor> executor, int collectors,
                  double pollMs, int ticks) {
  core::ModuleRegistry registry;
  registry.registerType("collector",
                        [] { return std::make_unique<SlowCollector>(); });
  registry.registerType("analysis",
                        [] { return std::make_unique<SummingAnalysis>(); });
  SummingAnalysis::checksum = 0.0;

  sim::SimEngine engine;
  core::FptCore fpt(engine, core::Environment{}, &registry);
  fpt.setExecutor(std::move(executor));
  fpt.configureFromText(buildConfig(collectors, pollMs));

  const auto start = std::chrono::steady_clock::now();
  engine.runUntil(ticks);
  RunResult out;
  out.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.checksum = SummingAnalysis::checksum;
  out.runs = fpt.totalRuns();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"collectors", "ticks", "poll-ms", "threads", "json"});
  using namespace asdf;
  const int collectors =
      static_cast<int>(bench::flagInt(argc, argv, "collectors", 50));
  const int ticks = static_cast<int>(bench::flagInt(argc, argv, "ticks", 20));
  const double pollMs = bench::flagDouble(argc, argv, "poll-ms", 2.0);
  const int threads =
      static_cast<int>(bench::flagInt(argc, argv, "threads", 4));
  const bool json = bench::flagPresent(argc, argv, "json");

  if (!json) {
    std::printf("parallel dispatch: %d collectors x %d ticks, %.1f ms poll\n",
                collectors, ticks, pollMs);
    bench::printRule();
    std::printf("%-12s %12s %14s %10s\n", "executor", "wall (s)",
                "module runs", "speedup");
    bench::printRule();
  }

  const RunResult serial =
      runWith(std::make_unique<core::SerialExecutor>(), collectors, pollMs,
              ticks);
  if (!json) {
    std::printf("%-12s %12.3f %14llu %10s\n", "serial", serial.wallSeconds,
                static_cast<unsigned long long>(serial.runs), "1.00x");
  }

  bool ok = true;
  struct Row {
    std::string name;
    RunResult result;
  };
  std::vector<Row> rows{{"serial", serial}};
  std::vector<int> widths{2};
  if (threads > 1 && threads != 2) widths.push_back(threads);
  for (int n : widths) {
    const RunResult pooled =
        runWith(std::make_unique<core::ThreadPoolExecutor>(n), collectors,
                pollMs, ticks);
    rows.push_back({strformat("pool(%d)", n), pooled});
    if (!json) {
      std::printf("%-12s %12.3f %14llu %9.2fx\n",
                  strformat("pool(%d)", n).c_str(), pooled.wallSeconds,
                  static_cast<unsigned long long>(pooled.runs),
                  serial.wallSeconds / pooled.wallSeconds);
    }
    if (pooled.checksum != serial.checksum || pooled.runs != serial.runs) {
      std::fprintf(stderr, "DIVERGENCE: pool(%d) checksum %.1f vs serial "
                   "%.1f\n", n, pooled.checksum, serial.checksum);
      ok = false;
    }
  }
  if (json) {
    std::printf("{\n  \"bench\": \"parallel_dispatch\",\n"
                "  \"collectors\": %d, \"ticks\": %d, \"poll_ms\": %.3f,\n"
                "  \"executors\": [\n",
                collectors, ticks, pollMs);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("    {\"name\": \"%s\", \"wall_s\": %.3f, "
                  "\"module_runs\": %llu, \"checksum\": %.1f, "
                  "\"speedup\": %.2f}%s\n",
                  r.name.c_str(), r.result.wallSeconds,
                  static_cast<unsigned long long>(r.result.runs),
                  r.result.checksum,
                  serial.wallSeconds / r.result.wallSeconds,
                  i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    bench::printRule();
  }
  return ok ? 0 : 1;
}
