// Sibling batches in fpt-core: consecutive runs of one module type for
// one reason reach Module::runBatch as one call, inside one executor
// chunk and one exclusivity group, in configuration order — so serial
// run order, module-run counts and exception propagation are those of
// running each member alone.
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/fpt_core.h"
#include "core/module.h"
#include "core/registry.h"

namespace asdf::core {
namespace {

/// One runBatch call as the batching module saw it.
struct BatchRecord {
  std::vector<std::string> ids;
  RunReason reason;
  std::thread::id thread;
  int task;
};

std::mutex gLogMutex;
std::vector<BatchRecord> gBatches;
std::vector<std::string> gRuns;  // every member run, in run order
thread_local int gCurrentTask = -1;

/// Periodic, or triggered by one update of `input[a]`. "domain" joins
/// an exclusivity domain and "throw_at" throws the instance id when run
/// at that time. Overrides runBatch to log the batch, then runs each
/// member through the default loop.
class BatchProbe : public Module {
 public:
  void init(ModuleContext& ctx) override {
    out_ = ctx.addOutput("out");
    if (ctx.inputNames().empty()) {
      ctx.requestPeriodic(1.0);
    } else {
      ctx.setInputTrigger(1);
    }
    const std::string domain = ctx.param("domain", "");
    if (!domain.empty()) ctx.requestExclusive(domain);
    throwAt_ = std::stod(ctx.param("throw_at", "-1"));
  }
  void run(ModuleContext& ctx, RunReason) override {
    {
      std::lock_guard<std::mutex> lock(gLogMutex);
      gRuns.push_back(ctx.instanceId());
    }
    if (ctx.now() == throwAt_) throw std::runtime_error(ctx.instanceId());
    ctx.write(out_, ctx.now());
  }
  void runBatch(std::span<Module* const> members,
                std::span<ModuleContext* const> contexts,
                RunReason reason) override {
    BatchRecord record{{}, reason, std::this_thread::get_id(), gCurrentTask};
    for (ModuleContext* ctx : contexts) record.ids.push_back(ctx->instanceId());
    {
      std::lock_guard<std::mutex> lock(gLogMutex);
      gBatches.push_back(record);
    }
    Module::runBatch(members, contexts, reason);
  }

 private:
  int out_ = -1;
  double throwAt_ = -1.0;
};

/// The same behavior under another type name: breaks a sibling run.
class OtherProbe final : public BatchProbe {};

/// Runs a batch inline in order while reporting `concurrency`, tagging
/// each task's batches with its index.
class TaggingExecutor final : public Executor {
 public:
  explicit TaggingExecutor(int concurrency) : concurrency_(concurrency) {}
  const std::string& name() const override { return name_; }
  int concurrency() const override { return concurrency_; }
  void runBatch(std::vector<Task>& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      gCurrentTask = static_cast<int>(i);
      batch[i]();
    }
    gCurrentTask = -1;
  }

 private:
  int concurrency_;
  std::string name_ = "tagging";
};

class SiblingBatch : public ::testing::Test {
 protected:
  SiblingBatch() {
    registry_.registerType("probe",
                           [] { return std::make_unique<BatchProbe>(); });
    registry_.registerType("other",
                           [] { return std::make_unique<OtherProbe>(); });
    gBatches.clear();
    gRuns.clear();
  }

  static std::vector<std::string> ids(const std::string& prefix, int from,
                                      int to) {
    std::vector<std::string> out;
    for (int i = from; i < to; ++i) out.push_back(prefix + std::to_string(i));
    return out;
  }

  ModuleRegistry registry_;
};

TEST_F(SiblingBatch, OneRunBatchPerSiblingRunPerLevelUnderSerial) {
  // Level 0: p0..p9 in one domain, broken after p4 by an instance of
  // another type; level 1: a sink per probe, each its own group.
  std::string config;
  for (int i = 0; i < 10; ++i) {
    config += "[probe]\nid = p" + std::to_string(i) + "\ndomain = d\n";
    if (i == 4) config += "[other]\nid = x\ndomain = d\n";
  }
  for (int i = 0; i < 10; ++i) {
    const std::string n = std::to_string(i);
    config += "[probe]\nid = s" + n + "\ninput[a] = p" + n + ".out\n";
  }
  sim::SimEngine engine;
  FptCore core(engine, Environment{}, &registry_);
  core.configureFromText(config);
  engine.runUntil(1.0);

  ASSERT_EQ(gBatches.size(), 13u);
  EXPECT_EQ(gBatches[0].ids, ids("p", 0, 5));
  EXPECT_EQ(gBatches[1].ids, std::vector<std::string>{"x"});
  EXPECT_EQ(gBatches[2].ids, ids("p", 5, 10));
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(gBatches[b].reason, RunReason::kPeriodic);
  }
  // Sinks share no domain, so each is a group and a batch of one.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gBatches[3 + i].ids,
              std::vector<std::string>{"s" + std::to_string(i)});
    EXPECT_EQ(gBatches[3 + i].reason, RunReason::kInputsUpdated);
  }
  // Members run in configuration order, as without batches.
  std::vector<std::string> order = ids("p", 0, 5);
  order.push_back("x");
  for (const std::string& id : ids("p", 5, 10)) order.push_back(id);
  for (const std::string& id : ids("s", 0, 10)) order.push_back(id);
  EXPECT_EQ(gRuns, order);
  // core.module_runs counts members, not batches.
  EXPECT_EQ(core.totalRuns(), 21u);
  EXPECT_EQ(core.findInstance("p3")->runCount(), 1u);
}

TEST_F(SiblingBatch, BatchesNeverSpanChunksOrGroupsUnderPool) {
  // 30 probes in groups of three (domain per triple): under a pool's
  // concurrency the level is cut into several chunks, and every batch
  // is exactly one group on one task.
  std::string config;
  for (int i = 0; i < 30; ++i) {
    config += "[probe]\nid = p" + std::to_string(i) + "\ndomain = g" +
              std::to_string(i / 3) + "\n";
  }
  for (const bool pool : {false, true}) {
    gBatches.clear();
    gRuns.clear();
    sim::SimEngine engine;
    FptCore core(engine, Environment{}, &registry_);
    if (pool) {
      core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
    } else {
      core.setExecutor(std::make_unique<TaggingExecutor>(4));
    }
    core.configureFromText(config);
    engine.runUntil(3.0);

    ASSERT_EQ(gBatches.size(), 30u) << pool;
    std::map<int, int> batchesPerTask;
    for (const BatchRecord& batch : gBatches) {
      ASSERT_EQ(batch.ids.size(), 3u) << pool;
      const int first = std::stoi(batch.ids[0].substr(1));
      EXPECT_EQ(first % 3, 0) << pool;
      EXPECT_EQ(batch.ids, ids("p", first, first + 3)) << pool;
      ++batchesPerTask[batch.task];
    }
    if (!pool) {
      // Ten groups per level cut into more than one chunk.
      EXPECT_GT(batchesPerTask.size(), 1u);
    }
    EXPECT_EQ(core.totalRuns(), 90u) << pool;
  }
}

TEST_F(SiblingBatch, ThrowingMemberSurfacesAndTheNextWavefrontRuns) {
  std::string config;
  for (int i = 0; i < 6; ++i) {
    config += "[probe]\nid = p" + std::to_string(i) + "\ndomain = d\n";
    if (i == 3) config += "throw_at = 2\n";
  }
  sim::SimEngine engine;
  FptCore core(engine, Environment{}, &registry_);
  core.configureFromText(config);
  engine.runUntil(1.0);
  gRuns.clear();
  try {
    engine.runUntil(2.0);
    FAIL() << "expected p3's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "p3");
  }
  // The batch ended at the throwing member, as the loop of runs did.
  EXPECT_EQ(gRuns, ids("p", 0, 4));
  gRuns.clear();
  engine.runUntil(3.0);
  EXPECT_EQ(gRuns, ids("p", 0, 6));
}

}  // namespace
}  // namespace asdf::core
