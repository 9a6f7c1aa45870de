// Executor back-ends (executor.h) and the scheduler behavior that
// depends on them: batch completion, exception propagation, genuine
// concurrency in the pool, and exclusivity domains serializing module
// instances that share state.
#include "core/executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fpt_core.h"
#include "core/module.h"
#include "core/registry.h"

namespace asdf::core {
namespace {

TEST(SerialExecutor, RunsTasksInSubmissionOrder) {
  SerialExecutor exec;
  EXPECT_EQ(exec.name(), "serial");
  EXPECT_EQ(exec.concurrency(), 1);
  std::vector<int> order;
  std::vector<Executor::Task> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back([&order, i] { order.push_back(i); });
  }
  exec.runBatch(batch);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SerialExecutor, PropagatesTaskException) {
  SerialExecutor exec;
  std::vector<Executor::Task> batch;
  batch.push_back([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(exec.runBatch(batch), std::runtime_error);
}

TEST(ThreadPoolExecutor, RunsEveryTaskAcrossBatches) {
  ThreadPoolExecutor exec(4);
  EXPECT_EQ(exec.concurrency(), 4);
  EXPECT_EQ(exec.name(), "pool(4)");
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<Executor::Task> batch;
    for (int i = 0; i < 7; ++i) {
      batch.push_back([&count] { count.fetch_add(1); });
    }
    exec.runBatch(batch);
  }
  EXPECT_EQ(count.load(), 140);
}

TEST(ThreadPoolExecutor, TasksOfOneBatchOverlap) {
  // Two tasks that each wait until the other has started can only
  // complete if the pool really runs them concurrently.
  ThreadPoolExecutor exec(2);
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(m);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived == 2; });
  };
  std::vector<Executor::Task> batch{rendezvous, rendezvous};
  exec.runBatch(batch);
  EXPECT_EQ(arrived, 2);
}

TEST(ThreadPoolExecutor, RethrowsLowestIndexedException) {
  ThreadPoolExecutor exec(4);
  std::vector<Executor::Task> batch;
  batch.push_back([] {});
  batch.push_back([] { throw std::runtime_error("first"); });
  batch.push_back([] { throw std::logic_error("second"); });
  try {
    exec.runBatch(batch);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The pool must survive a throwing batch.
  std::atomic<int> ran{0};
  std::vector<Executor::Task> next{[&ran] { ran.fetch_add(1); }};
  exec.runBatch(next);
  EXPECT_EQ(ran.load(), 1);
}

TEST(MakeExecutor, SelectsBackEndByThreadCount) {
  EXPECT_EQ(makeExecutor(0)->name(), "serial");
  EXPECT_EQ(makeExecutor(1)->name(), "serial");
  EXPECT_EQ(makeExecutor(3)->name(), "pool(3)");
}

// --- exclusivity domains through the scheduler -------------------------

/// Periodic module that tracks how many instances execute concurrently
/// (all of them, and those that declared a domain) and in which order
/// they start. Up to two domains: "domain" and "domain2".
class ExclusiveProbe final : public Module {
 public:
  static std::atomic<int> inside;
  static std::atomic<int> maxInside;
  static std::atomic<int> insideExclusive;
  static std::atomic<int> maxInsideExclusive;
  static std::mutex orderMutex;
  static std::vector<std::string> startOrder;

  void init(ModuleContext& ctx) override {
    ctx.requestPeriodic(1.0);
    for (const char* key : {"domain", "domain2"}) {
      const std::string domain = ctx.param(key, "");
      if (domain.empty()) continue;
      ctx.requestExclusive(domain);
      exclusive_ = true;
    }
  }
  void run(ModuleContext& ctx, RunReason) override {
    {
      std::lock_guard<std::mutex> lock(orderMutex);
      startOrder.push_back(ctx.instanceId());
    }
    enter(inside, maxInside);
    if (exclusive_) enter(insideExclusive, maxInsideExclusive);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (exclusive_) insideExclusive.fetch_sub(1);
    inside.fetch_sub(1);
  }

 private:
  static void enter(std::atomic<int>& count, std::atomic<int>& max) {
    const int now = count.fetch_add(1) + 1;
    int seen = max.load();
    while (now > seen && !max.compare_exchange_weak(seen, now)) {
    }
  }

  bool exclusive_ = false;
};

std::atomic<int> ExclusiveProbe::inside{0};
std::atomic<int> ExclusiveProbe::maxInside{0};
std::atomic<int> ExclusiveProbe::insideExclusive{0};
std::atomic<int> ExclusiveProbe::maxInsideExclusive{0};
std::mutex ExclusiveProbe::orderMutex;
std::vector<std::string> ExclusiveProbe::startOrder;

class ExclusivityTest : public ::testing::Test {
 protected:
  ExclusivityTest() {
    registry_.registerType(
        "probe", [] { return std::make_unique<ExclusiveProbe>(); });
    ExclusiveProbe::inside = 0;
    ExclusiveProbe::maxInside = 0;
    ExclusiveProbe::insideExclusive = 0;
    ExclusiveProbe::maxInsideExclusive = 0;
    ExclusiveProbe::startOrder.clear();
  }

  sim::SimEngine engine_;
  ModuleRegistry registry_;
};

TEST_F(ExclusivityTest, SharedDomainNeverRunsConcurrently) {
  FptCore core(engine_, Environment{}, &registry_);
  core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
  core.configureFromText(R"(
[probe]
id = a
domain = shared

[probe]
id = b
domain = shared

[probe]
id = c
domain = shared

[probe]
id = d
domain = shared
)");
  engine_.runUntil(5.0);
  EXPECT_EQ(ExclusiveProbe::maxInside.load(), 1);
  // Within every tick the domain members start in configuration order.
  ASSERT_EQ(ExclusiveProbe::startOrder.size(), 20u);
  for (std::size_t tick = 0; tick < 5; ++tick) {
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 0], "a");
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 1], "b");
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 2], "c");
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 3], "d");
  }
}

TEST_F(ExclusivityTest, IndependentInstancesDoOverlap) {
  FptCore core(engine_, Environment{}, &registry_);
  core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
  // No domain: all four may run concurrently.
  core.configureFromText(R"(
[probe]
id = a

[probe]
id = b

[probe]
id = c

[probe]
id = d
)");
  engine_.runUntil(10.0);
  EXPECT_GT(ExclusiveProbe::maxInside.load(), 1);
}

TEST_F(ExclusivityTest, ChainedDomainsFormOneSerialGroup) {
  // b shares x with a and y with c, so a, b and c form one serial group
  // although a and c share no domain; d stays independent.
  {
    FptCore core(engine_, Environment{}, &registry_);
    core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
    core.configureFromText(R"(
[probe]
id = a
domain = x

[probe]
id = b
domain = x
domain2 = y

[probe]
id = c
domain = y

[probe]
id = d
)");
    engine_.runUntil(5.0);
    EXPECT_EQ(ExclusiveProbe::maxInsideExclusive.load(), 1);
    // Each tick is its own wavefront, so its four starts are contiguous;
    // d may start anywhere among them.
    ASSERT_EQ(ExclusiveProbe::startOrder.size(), 20u);
    for (std::size_t tick = 0; tick < 5; ++tick) {
      std::vector<std::string> chained;
      for (std::size_t i = 0; i < 4; ++i) {
        const std::string& id = ExclusiveProbe::startOrder[tick * 4 + i];
        if (id != "d") chained.push_back(id);
      }
      EXPECT_EQ(chained, (std::vector<std::string>{"a", "b", "c"}));
    }
  }

  // Serial executor: a level runs group by group, so c (grouped with a)
  // starts before the independent b.
  ExclusiveProbe::startOrder.clear();
  sim::SimEngine engine;
  FptCore core(engine, Environment{}, &registry_);
  core.configureFromText(R"(
[probe]
id = a
domain = x

[probe]
id = b

[probe]
id = c
domain = x
)");
  engine.runUntil(2.0);
  EXPECT_EQ(ExclusiveProbe::startOrder,
            (std::vector<std::string>{"a", "c", "b", "a", "c", "b"}));
}

// --- chunked dispatch (one executor task per chunk of groups) ----------

/// Periodic probe that logs (task, instance id) for every run. With an
/// `input[a]` it is instead triggered by one update of it; "domain"
/// joins an exclusivity domain, "throw_at" throws the instance id as a
/// runtime_error when run at that time, and "out" is written each run.
class ChunkProbe final : public Module {
 public:
  struct Entry {
    int task;
    std::string id;
  };
  static std::mutex logMutex;
  static std::vector<Entry> log;
  static thread_local int currentTask;

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
      std::lock_guard<std::mutex> lock(logMutex);
      log.push_back(Entry{currentTask, ctx.instanceId()});
    }
    volatile double sink = 0.0;
    for (int i = 0; i < 2000; ++i) sink = sink + i;
    if (ctx.now() == throwAt_) throw std::runtime_error(ctx.instanceId());
    ctx.write(out_, ctx.now());
  }

 private:
  int out_ = -1;
  double throwAt_ = -1.0;
};

std::mutex ChunkProbe::logMutex;
std::vector<ChunkProbe::Entry> ChunkProbe::log;
thread_local int ChunkProbe::currentTask = -1;

/// Runs a batch inline in order, like SerialExecutor, while reporting
/// any concurrency(); records every batch's size and tags each task's
/// runs with its index.
class RecordingExecutor final : public Executor {
 public:
  explicit RecordingExecutor(int concurrency, std::vector<std::size_t>& sizes)
      : concurrency_(concurrency), sizes_(sizes) {}
  const std::string& name() const override { return name_; }
  int concurrency() const override { return concurrency_; }
  void runBatch(std::vector<Task>& batch) override {
    sizes_.push_back(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ChunkProbe::currentTask = static_cast<int>(i);
      batch[i]();
    }
    ChunkProbe::currentTask = -1;
  }

 private:
  int concurrency_;
  std::vector<std::size_t>& sizes_;
  std::string name_ = "recording";
};

/// `count` periodic probes p0..p{count-1}; every third pair shares a
/// domain, so some groups hold two instances out of configuration
/// order. Each probe feeds a triggered sink s<i> one level deeper.
std::string chunkConfig(int count, int throwA = -1, int throwB = -1) {
  std::string config;
  for (int i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    config += "[probe]\nid = p" + n + "\n";
    if (i % 3 == 0 && i + 2 < count) config += "domain = d" + n + "\n";
    if (i % 3 == 2) config += "domain = d" + std::to_string(i - 2) + "\n";
    if (i == throwA || i == throwB) config += "throw_at = 2\n";
    config += "[probe]\nid = s" + n + "\ninput[a] = p" + n + ".out\n";
  }
  return config;
}

class CoreExecutorChunks : public ::testing::Test {
 protected:
  CoreExecutorChunks() {
    registry_.registerType("probe",
                           [] { return std::make_unique<ChunkProbe>(); });
    ChunkProbe::log.clear();
  }

  /// Runs one tick of chunkConfig(count) under a RecordingExecutor of
  /// the given concurrency and returns its batch sizes; the runs are
  /// in ChunkProbe::log.
  std::vector<std::size_t> oneTick(int concurrency, int count) {
    std::vector<std::size_t> sizes;
    sim::SimEngine engine;
    FptCore core(engine, Environment{}, &registry_);
    core.setExecutor(std::make_unique<RecordingExecutor>(concurrency, sizes));
    core.configureFromText(chunkConfig(count));
    engine.runUntil(1.0);
    return sizes;
  }

  ModuleRegistry registry_;
};

TEST_F(CoreExecutorChunks, SerialConcurrencyHandsEachLevelAsOneTask) {
  const std::vector<std::size_t> sizes = oneTick(1, 30);
  // Level 0 (the probes) and level 1 (the sinks), one task each.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1}));
  ASSERT_EQ(ChunkProbe::log.size(), 60u);
  for (const ChunkProbe::Entry& e : ChunkProbe::log) EXPECT_EQ(e.task, 0);
}

TEST_F(CoreExecutorChunks, PoolConcurrencyCutsLevelsIntoContiguousChunks) {
  oneTick(1, 30);
  const std::vector<ChunkProbe::Entry> serialLog = ChunkProbe::log;
  ChunkProbe::log.clear();
  const std::vector<std::size_t> sizes = oneTick(4, 30);

  // 30 probes in 20 groups, then 30 sinks in 30 groups: each level is
  // cut into more than one and at most the bound of chunks.
  ASSERT_EQ(sizes.size(), 2u);
  for (const std::size_t size : sizes) {
    EXPECT_GT(size, 1u);
    EXPECT_LE(size, static_cast<std::size_t>(kChunksPerWorker * 4));
  }
  // Every run happens once, in the serial executor's order: chunks are
  // contiguous runs of groups, each in group order, and their indices
  // rise along it.
  ASSERT_EQ(ChunkProbe::log.size(), serialLog.size());
  int lastTask = 0;
  for (std::size_t i = 0; i < serialLog.size(); ++i) {
    EXPECT_EQ(ChunkProbe::log[i].id, serialLog[i].id) << i;
    if (i == 30) lastTask = 0;  // the sinks' level starts over
    EXPECT_GE(ChunkProbe::log[i].task, lastTask) << i;
    lastTask = ChunkProbe::log[i].task;
  }
  // A group is never split: p0 and p2 share a domain, so they run in
  // the same chunk.
  EXPECT_EQ(ChunkProbe::log[0].id, "p0");
  EXPECT_EQ(ChunkProbe::log[1].id, "p2");
  EXPECT_EQ(ChunkProbe::log[0].task, ChunkProbe::log[1].task);
}

TEST_F(CoreExecutorChunks, PoolMetersCpuPerChunk) {
  sim::SimEngine engine;
  FptCore core(engine, Environment{}, &registry_);
  core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
  core.configureFromText(chunkConfig(30));
  engine.runUntil(3.0);
  EXPECT_EQ(core.totalRuns(), 3u * 60u);
  EXPECT_GT(core.cpuSeconds(), 0.0);
}

TEST_F(CoreExecutorChunks, ThrowingGroupSurfacesLowestAndNextWavefrontRuns) {
  // p7 and p25 throw from different chunks; p7's exception surfaces
  // whichever chunk ends first.
  sim::SimEngine engine;
  FptCore core(engine, Environment{}, &registry_);
  core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
  core.configureFromText(chunkConfig(30, 7, 25));
  engine.runUntil(1.0);
  try {
    engine.runUntil(2.0);
    FAIL() << "expected the probes' exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "p7");
  }
  // The failed wavefront left no state behind: the next tick runs every
  // probe and every sink.
  ChunkProbe::log.clear();
  engine.runUntil(3.0);
  EXPECT_EQ(ChunkProbe::log.size(), 60u);
}

}  // namespace
}  // namespace asdf::core
