// fpt-core tests: DAG construction per Section 3.3, scheduling
// semantics, wiring errors. Uses small purpose-built test modules
// registered in a private registry.
#include "core/fpt_core.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/module.h"
#include "core/registry.h"

namespace asdf::core {
namespace {

// Emits its instance id's configured "value" every "interval" seconds.
class TestSource final : public Module {
 public:
  void init(ModuleContext& ctx) override {
    value_ = ctx.numParam("value", 1.0);
    out_ = ctx.addOutput("output0", ctx.param("origin", ""));
    ctx.requestPeriodic(ctx.numParam("interval", 1.0));
  }
  void run(ModuleContext& ctx, RunReason reason) override {
    EXPECT_EQ(reason, RunReason::kPeriodic);
    ctx.write(out_, value_);
  }

 private:
  double value_ = 0.0;
  int out_ = -1;
};

// Multiplies its scalar input by "factor".
class TestScale final : public Module {
 public:
  void init(ModuleContext& ctx) override {
    factor_ = ctx.numParam("factor", 2.0);
    if (ctx.inputWidth("input") != 1) {
      throw ConfigError("scale needs exactly one input");
    }
    out_ = ctx.addOutput("output0");
  }
  void run(ModuleContext& ctx, RunReason) override {
    if (!ctx.inputFresh("input", 0)) return;
    ctx.write(out_, asScalar(ctx.input("input", 0).value) * factor_);
  }

 private:
  double factor_ = 2.0;
  int out_ = -1;
};

// Records every scalar it sees, plus run bookkeeping.
class TestSink final : public Module {
 public:
  static std::vector<double>* collected;
  static int runs;
  void init(ModuleContext& ctx) override {
    trigger_ = static_cast<int>(ctx.intParam("trigger", 1));
    ctx.setInputTrigger(trigger_);
  }
  void run(ModuleContext& ctx, RunReason) override {
    ++runs;
    for (const auto& name : ctx.inputNames()) {
      for (std::size_t i = 0; i < ctx.inputWidth(name); ++i) {
        if (ctx.inputHasData(name, i) && ctx.inputFresh(name, i)) {
          collected->push_back(asScalar(ctx.input(name, i).value));
        }
      }
    }
  }

 private:
  int trigger_ = 1;
};

std::vector<double>* TestSink::collected = nullptr;
int TestSink::runs = 0;

// Periodic module that calls the init-only hook named by "hook" from
// run(), where it is no longer allowed.
class TestLateHook final : public Module {
 public:
  void init(ModuleContext& ctx) override {
    hook_ = ctx.param("hook");
    ctx.requestPeriodic(1.0);
  }
  void run(ModuleContext& ctx, RunReason) override {
    if (hook_ == "periodic") ctx.requestPeriodic(0.5);
    if (hook_ == "trigger") ctx.setInputTrigger(1);
    if (hook_ == "exclusive") ctx.requestExclusive("late");
    if (hook_ == "output") ctx.addOutput("late");
  }

 private:
  std::string hook_;
};

class FptCoreTest : public ::testing::Test {
 protected:
  FptCoreTest() {
    registry_.registerType("source",
                           [] { return std::make_unique<TestSource>(); });
    registry_.registerType("scale",
                           [] { return std::make_unique<TestScale>(); });
    registry_.registerType("sink",
                           [] { return std::make_unique<TestSink>(); });
    registry_.registerType("latehook",
                           [] { return std::make_unique<TestLateHook>(); });
    TestSink::collected = &collected_;
    TestSink::runs = 0;
  }

  sim::SimEngine engine_;
  ModuleRegistry registry_;
  std::vector<double> collected_;
};

TEST_F(FptCoreTest, BuildsAndRunsLinearPipeline) {
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText(R"(
[source]
id = src
value = 5
interval = 1

[scale]
id = x2
factor = 2
input[input] = src.output0

[sink]
id = out
input[a] = x2.output0
)");
  engine_.runUntil(3.0);
  ASSERT_EQ(collected_.size(), 3u);
  EXPECT_DOUBLE_EQ(collected_[0], 10.0);
  EXPECT_EQ(core.instances().size(), 3u);
  EXPECT_GE(core.totalRuns(), 9u);
}

TEST_F(FptCoreTest, AtSyntaxBindsAllOutputs) {
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText(R"(
[source]
id = src
value = 7

[sink]
id = out
input[a] = @src
)");
  engine_.runUntil(2.0);
  ASSERT_EQ(collected_.size(), 2u);
  EXPECT_DOUBLE_EQ(collected_[1], 7.0);
}

TEST_F(FptCoreTest, InitializationOrderFollowsDependencies) {
  // Downstream instances listed before their producers still
  // initialize — the init queue resolves ordering (Section 3.3).
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText(R"(
[sink]
id = out
input[a] = mid.output0

[scale]
id = mid
input[input] = src.output0

[source]
id = src
value = 3
)");
  engine_.runUntil(1.0);
  ASSERT_EQ(collected_.size(), 1u);
  EXPECT_DOUBLE_EQ(collected_[0], 6.0);
}

TEST_F(FptCoreTest, InputTriggerBatchesUpdates) {
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText(R"(
[source]
id = a
value = 1

[source]
id = b
value = 2

[sink]
id = out
trigger = 2
input[x] = a.output0
input[y] = b.output0
)");
  engine_.runUntil(4.0);
  // Both sources fire at each tick; the sink runs once per tick (not
  // twice) because it waits for 2 updates.
  EXPECT_EQ(TestSink::runs, 4);
  EXPECT_EQ(collected_.size(), 8u);
}

TEST_F(FptCoreTest, UnknownModuleTypeFails) {
  FptCore core(engine_, Environment{}, &registry_);
  EXPECT_THROW(core.configureFromText("[nosuch]\nid = x\n"), ConfigError);
}

TEST_F(FptCoreTest, UnknownInputInstanceFails) {
  FptCore core(engine_, Environment{}, &registry_);
  try {
    core.configureFromText("[sink]\nid = out\ninput[a] = ghost.output0\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("config line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST_F(FptCoreTest, MalformedInputRefFails) {
  for (const char* ref : {"src", "@", "src."}) {
    FptCore core(engine_, Environment{}, &registry_);
    try {
      core.configureFromText(std::string("[source]\nid = src\n[sink]\n") +
                             "id = out\ninput[a] = " + ref + "\n");
      FAIL() << "expected ConfigError for '" << ref << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("config line 5"),
                std::string::npos)
          << ref << ": " << e.what();
    }
  }
}

TEST_F(FptCoreTest, UnknownOutputNameFails) {
  FptCore core(engine_, Environment{}, &registry_);
  EXPECT_THROW(core.configureFromText(R"(
[source]
id = src

[sink]
id = out
input[a] = src.nonexistent
)"),
               ConfigError);
}

TEST_F(FptCoreTest, DuplicateIdFails) {
  FptCore core(engine_, Environment{}, &registry_);
  EXPECT_THROW(core.configureFromText("[source]\nid = x\n[source]\nid = x\n"),
               ConfigError);
}

TEST_F(FptCoreTest, CycleFailsDagConstruction) {
  FptCore core(engine_, Environment{}, &registry_);
  EXPECT_THROW(core.configureFromText(R"(
[scale]
id = a
input[input] = b.output0

[scale]
id = b
input[input] = a.output0
)"),
               ConfigError);
}

TEST_F(FptCoreTest, CycleErrorNamesStuckInstances) {
  FptCore core(engine_, Environment{}, &registry_);
  try {
    core.configureFromText(R"(
[scale]
id = looper
input[input] = looper.output0
)");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("looper"), std::string::npos);
  }
}

TEST_F(FptCoreTest, AnonymousInstancesGetGeneratedIds) {
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText("[source]\nvalue = 1\n[source]\nvalue = 2\n");
  EXPECT_EQ(core.instances().size(), 2u);
  EXPECT_NE(core.instances()[0]->id(), core.instances()[1]->id());
  EXPECT_NE(core.findInstance(core.instances()[0]->id()), nullptr);
}

TEST_F(FptCoreTest, ReconfigureIsRejected) {
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText("[source]\nid = s\n");
  EXPECT_THROW(core.configureFromText("[source]\nid = t\n"), ConfigError);
}

TEST_F(FptCoreTest, OriginsPropagateToConsumers) {
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText(R"(
[source]
id = src
origin = slave7

[sink]
id = out
input[a] = src.output0
)");
  engine_.runUntil(1.0);
  const ModuleInstance* src = core.findInstance("src");
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->outputs().front()->origin, "slave7");
}

TEST_F(FptCoreTest, MalformedNumericParamFailsAtInit) {
  FptCore core(engine_, Environment{}, &registry_);
  EXPECT_THROW(core.configureFromText("[source]\nid = s\nvalue = abc\n"),
               ConfigError);
}

TEST_F(FptCoreTest, CpuAndMemoryAccounting) {
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText(R"(
[source]
id = src

[sink]
id = out
input[a] = @src
)");
  engine_.runUntil(50.0);
  EXPECT_GT(core.cpuSeconds(), 0.0);
  EXPECT_GT(core.memoryFootprintBytes(), 0u);
}

TEST_F(FptCoreTest, SchedulingHooksAfterInitThrow) {
  for (const char* hook : {"periodic", "trigger", "exclusive", "output"}) {
    sim::SimEngine engine;
    FptCore core(engine, Environment{}, &registry_);
    core.configureFromText(std::string("[latehook]\nid = late\nhook = ") +
                           hook + "\n");
    EXPECT_THROW(engine.runUntil(2.0), ConfigError) << hook;
  }
}

// All instances of one period share one engine timer: a tick costs one
// timer event per distinct period plus one wavefront dispatch, however
// many instances are periodic. Periods are interleaved in the config,
// and every instance still runs once per period.
TEST_F(FptCoreTest, PeriodicInstancesShareOneEngineTimer) {
  std::string config;
  for (int i = 0; i < 60; ++i) {
    config += "[source]\nid = s" + std::to_string(i) + "\ninterval = " +
              (i % 6 == 5 ? "5" : "1") + "\n";
  }
  FptCore core(engine_, Environment{}, &registry_);
  core.configureFromText(config);
  // 1 s timer: 10 firings; 5 s timer: 2; one dispatch per second: 10.
  EXPECT_EQ(engine_.runUntil(10.0), 22u);
  EXPECT_EQ(core.wavefronts(), 10u);
  for (const auto& inst : core.instances()) {
    const bool slow = std::stoi(inst->id().substr(1)) % 6 == 5;
    EXPECT_EQ(inst->runCount(), slow ? 2u : 10u) << inst->id();
  }
}

TEST(Environment, TypedServiceLookup) {
  Environment env;
  int value = 42;
  env.provide("answer", &value);
  EXPECT_EQ(env.get<int>("answer"), &value);
  EXPECT_EQ(env.get<int>("missing"), nullptr);
  EXPECT_THROW(env.get<double>("answer"), std::logic_error);
  EXPECT_THROW(env.require<int>("missing"), std::logic_error);
  EXPECT_EQ(&env.require<int>("answer"), &value);
}

}  // namespace
}  // namespace asdf::core
