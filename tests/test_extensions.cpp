// Integration tests for the Section 5 extension modules: strace
// collection + Markov scoring, active mitigation, and the csv_sink
// offline-logging path.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/strings.h"
#include "core/fpt_core.h"
#include "faults/faults.h"
#include "harness/experiment.h"
#include "modules/modules.h"
#include "rpc/daemons.h"
#include "workload/gridmix.h"

namespace asdf {
namespace {

class ExtensionTest : public ::testing::Test {
 protected:
  ExtensionTest()
      : cluster_(makeParams(), 4321, engine_),
        gridmix_(cluster_, {}, 4322) {
    modules::registerBuiltinModules();
    cluster_.start();
    gridmix_.start();
    hub_ = std::make_unique<rpc::RpcHub>(cluster_, 0.0);
    env_.provide("rpc", hub_.get());
  }

  static hadoop::HadoopParams makeParams() {
    hadoop::HadoopParams p;
    p.slaveCount = 4;
    return p;
  }

  /// Config: per-slave strace -> mavgvec, one agg_wb group, the
  /// white-box merge, print.
  std::string straceConfig(double k = 3.0) const {
    std::string config;
    for (int i = 1; i <= 4; ++i) {
      config += strformat(
          "[strace]\nid = st%d\nnode = %d\nwarmup = 90\n\n", i, i);
      config += strformat(
          "[mavgvec]\nid = m%d\nwindow = 60\nslide = 10\n"
          "input[input] = st%d.output0\n\n",
          i, i);
    }
    config += "[agg_wb]\nid = agg\n";
    for (int i = 1; i <= 4; ++i) {
      config += strformat("input[a%d] = m%d.mean\n", i - 1, i);
      config += strformat("input[d%d] = m%d.stddev\n", i - 1, i);
    }
    config += strformat(
        "\n[analysis_wb_merge]\nid = wb\nk = %g\ninput[s0] = agg.summary\n",
        k);
    config += "\n[print]\nid = StraceAlarm\nquiet = 1\ninput[a] = @wb\n";
    return config;
  }

  sim::SimEngine engine_;
  hadoop::Cluster cluster_;
  workload::GridMixGenerator gridmix_;
  std::unique_ptr<rpc::RpcHub> hub_;
  core::Environment env_;
};

TEST_F(ExtensionTest, StraceDaemonShipsTraces) {
  engine_.runUntil(30.0);
  std::size_t bytes = 0;
  const auto trace = hub_->strace(1).fetch(bytes);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(bytes, 4 + trace.size());
  // The call is charged by the client, here the hub's own.
  rpc::Fetched<syscalls::TraceSecond> fetched;
  hub_->client().fetchStrace(1, 30.0, fetched);
  EXPECT_TRUE(fetched.ok);
  EXPECT_GT(hub_->transports().channel("strace-tcp").calls(), 0);
  EXPECT_GT(hub_->straceCpuSeconds(), 0.0);
}

TEST_F(ExtensionTest, StracePipelineFlagsHungNode) {
  std::vector<core::Alarm> alarms;
  env_.alarmSink = [&](const core::Alarm& a) { alarms.push_back(a); };
  core::FptCore fpt(engine_, env_, nullptr);
  fpt.configureFromText(straceConfig());

  // Inject the reduce hang: its futex/nanosleep storm is exactly what
  // the Markov model calls off-distribution.
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kHadoop2080;
  spec.node = 2;
  spec.startTime = 200.0;
  faults::FaultInjector injector(cluster_, spec);
  injector.arm();

  engine_.runUntil(1200.0);
  ASSERT_FALSE(alarms.empty());
  long culpritFlags = 0;
  long otherFlags = 0;
  for (const auto& a : alarms) {
    for (std::size_t i = 0; i < a.flags.size(); ++i) {
      if (a.flags[i] < 0.5) continue;
      if (i == 1) {
        ++culpritFlags;  // slave2 is index 1
      } else {
        ++otherFlags;
      }
    }
  }
  EXPECT_GT(culpritFlags, 0);
  EXPECT_GT(culpritFlags, otherFlags);
}

// Pins the strace stream: nodes 1-3's traces, read every second for
// 300 s across a reduce hang, hash to the value computed when every
// node drew its trace every second. The first read attaches a node's
// consumer; node 4, never read, draws nothing and moves no other
// stream.
TEST_F(ExtensionTest, StraceStreamMatchesParent) {
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kHadoop2080;
  spec.node = 2;
  spec.startTime = 100.0;
  faults::FaultInjector injector(cluster_, spec);
  injector.arm();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  std::size_t events = 0;
  for (int t = 1; t <= 300; ++t) {
    engine_.runUntil(t);
    for (NodeId node = 1; node <= 3; ++node) {
      const syscalls::TraceSecond& trace =
          cluster_.node(node).lastSyscallTrace();
      mix(trace.size() & 0xFFu);
      mix(trace.size() >> 8);
      for (const std::uint8_t kind : trace) mix(kind);
      events += trace.size();
    }
  }
  EXPECT_GT(events, 300u * 3u * 5u);
  EXPECT_EQ(h, 0x7d7d96ccabf6d5b1ULL);
}

// A strace module attaches its node at configure time, so the node
// draws every second and the stream does not depend on which seconds
// are read: the module polls node 2 every 3 s, the test reads it every
// 7th second from t = 7, across a reduce hang on node 2, and the hash
// is the one computed when every node drew its trace every second.
TEST_F(ExtensionTest, StraceStreamIgnoresReadGaps) {
  core::FptCore fpt(engine_, env_, nullptr);
  fpt.configureFromText(
      "[strace]\nid = st\nnode = 2\ninterval = 3\nwarmup = 30\n");
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kHadoop2080;
  spec.node = 2;
  spec.startTime = 100.0;
  faults::FaultInjector injector(cluster_, spec);
  injector.arm();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  std::size_t events = 0;
  for (int t = 7; t <= 301; t += 7) {
    engine_.runUntil(t);
    const syscalls::TraceSecond& trace = cluster_.node(2).lastSyscallTrace();
    mix(trace.size() & 0xFFu);
    mix(trace.size() >> 8);
    for (const std::uint8_t kind : trace) mix(kind);
    events += trace.size();
  }
  EXPECT_GT(events, 43u * 5u);
  EXPECT_EQ(h, 0xd910f062cfa2261dULL);
}

// A stats query must not draw a trace: reading node 1 every other
// second yields the same traces whether or not straceMemoryBytes() is
// called in the seconds between.
TEST_F(ExtensionTest, StraceMemoryQueryDrawsNoTrace) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(makeParams(), 4321, engine);
  workload::GridMixGenerator gridmix(cluster, {}, 4322);
  cluster.start();
  gridmix.start();
  rpc::RpcHub hub(cluster, 0.0);
  std::vector<syscalls::TraceSecond> plain;
  std::vector<syscalls::TraceSecond> queried;
  for (int t = 1; t <= 60; ++t) {
    engine.runUntil(t);
    engine_.runUntil(t);
    if (t % 2 == 0) {
      plain.push_back(cluster.node(1).lastSyscallTrace());
      queried.push_back(cluster_.node(1).lastSyscallTrace());
    } else {
      EXPECT_GT(hub_->straceMemoryBytes(), 0u);
    }
  }
  EXPECT_EQ(queried, plain);
}

TEST_F(ExtensionTest, StraceRequiresNodeParam) {
  core::FptCore fpt(engine_, env_, nullptr);
  EXPECT_THROW(fpt.configureFromText("[strace]\nid = s\n"), ConfigError);
}

class RecordingMitigator : public modules::Mitigator {
 public:
  void quarantine(const std::string& origin, SimTime when) override {
    quarantined.emplace_back(origin, when);
  }
  std::vector<std::pair<std::string, SimTime>> quarantined;
};

// Scripted alarm source for mitigation tests.
class AlarmFeeder final : public core::Module {
 public:
  static std::vector<std::vector<double>>* script;
  void init(core::ModuleContext& ctx) override {
    out_ = ctx.addOutput("alarms", "slave1;slave2;slave3");
    ctx.requestPeriodic(1.0);
  }
  void run(core::ModuleContext& ctx, core::RunReason) override {
    if (i_ < script->size()) ctx.write(out_, (*script)[i_++]);
  }

 private:
  std::size_t i_ = 0;
  int out_ = -1;
};
std::vector<std::vector<double>>* AlarmFeeder::script = nullptr;

TEST(MitigateModule, QuarantinesAfterConsecutiveAlarms) {
  modules::registerBuiltinModules();
  core::ModuleRegistry::global().registerType(
      "alarm_feeder", [] { return std::make_unique<AlarmFeeder>(); });
  std::vector<std::vector<double>> script = {
      {0, 1, 0}, {0, 1, 0},  // only 2 consecutive: no action yet
      {0, 0, 0},             // streak broken
      {0, 1, 0}, {0, 1, 0}, {0, 1, 0},  // 3 consecutive -> quarantine
      {0, 1, 0},                        // already quarantined: no repeat
  };
  AlarmFeeder::script = &script;

  sim::SimEngine engine;
  RecordingMitigator mitigator;
  core::Environment env;
  env.provide<modules::Mitigator>("mitigator", &mitigator);
  core::FptCore fpt(engine, env);
  fpt.configureFromText(R"(
[alarm_feeder]
id = feeder

[mitigate]
id = medic
consecutive = 3
input[a] = @feeder
)");
  engine.runUntil(10.0);
  ASSERT_EQ(mitigator.quarantined.size(), 1u);
  EXPECT_EQ(mitigator.quarantined[0].first, "slave2");
  EXPECT_DOUBLE_EQ(mitigator.quarantined[0].second, 6.0);
}

TEST(MitigateModule, RequiresMitigatorService) {
  modules::registerBuiltinModules();
  core::ModuleRegistry::global().registerType(
      "alarm_feeder", [] { return std::make_unique<AlarmFeeder>(); });
  std::vector<std::vector<double>> script;
  AlarmFeeder::script = &script;
  sim::SimEngine engine;
  core::FptCore fpt(engine, core::Environment{});
  EXPECT_THROW(fpt.configureFromText(R"(
[alarm_feeder]
id = feeder

[mitigate]
id = medic
input[a] = @feeder
)"),
               std::logic_error);
}

TEST_F(ExtensionTest, MitigationBlacklistsTheFingerpointedNode) {
  // Full loop: analysis alarms -> mitigate -> JobTracker blacklist.
  class JtMitigator : public modules::Mitigator {
   public:
    explicit JtMitigator(hadoop::Cluster& cluster) : cluster_(cluster) {}
    void quarantine(const std::string& origin, SimTime) override {
      long node = 0;
      if (startsWith(origin, "slave") &&
          parseInt(origin.substr(5), node)) {
        cluster_.jobTracker().blacklistNode(static_cast<NodeId>(node));
      }
    }

   private:
    hadoop::Cluster& cluster_;
  };
  JtMitigator mitigator(cluster_);
  env_.provide<modules::Mitigator>("mitigator", &mitigator);

  std::string config = straceConfig();
  config += "\n[mitigate]\nid = medic\nconsecutive = 2\ninput[a] = @wb\n";
  core::FptCore fpt(engine_, env_, nullptr);
  fpt.configureFromText(config);

  faults::FaultSpec spec;
  spec.type = faults::FaultType::kHadoop2080;
  spec.node = 2;
  spec.startTime = 200.0;
  faults::FaultInjector injector(cluster_, spec);
  injector.arm();

  engine_.runUntil(1200.0);
  EXPECT_TRUE(cluster_.jobTracker().isBlacklisted(2));
  EXPECT_FALSE(cluster_.jobTracker().isBlacklisted(1));
}

TEST(CsvSink, WritesRowsForEverySample) {
  modules::registerBuiltinModules();
  core::ModuleRegistry::global().registerType(
      "alarm_feeder", [] { return std::make_unique<AlarmFeeder>(); });
  std::vector<std::vector<double>> script = {{1, 0, 0}, {0, 1, 0}};
  AlarmFeeder::script = &script;
  const std::string path = "/tmp/asdf_csv_sink_test.csv";
  std::remove(path.c_str());

  sim::SimEngine engine;
  core::FptCore fpt(engine, core::Environment{});
  fpt.configureFromText("[alarm_feeder]\nid = feeder\n\n[csv_sink]\nid = "
                        "log\nfile = " +
                        path + "\ninput[a] = @feeder\n");
  engine.runUntil(5.0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 samples
  EXPECT_TRUE(contains(lines[0], "time"));
  EXPECT_TRUE(contains(lines[1], "slave1;slave2;slave3"));
  EXPECT_TRUE(contains(lines[1], "alarms"));
  EXPECT_TRUE(contains(lines[2], "2.000"));
}

TEST(CsvSink, RequiresFileParam) {
  modules::registerBuiltinModules();
  core::ModuleRegistry::global().registerType(
      "alarm_feeder", [] { return std::make_unique<AlarmFeeder>(); });
  std::vector<std::vector<double>> script;
  AlarmFeeder::script = &script;
  sim::SimEngine engine;
  core::FptCore fpt(engine, core::Environment{});
  EXPECT_THROW(fpt.configureFromText(
                   "[alarm_feeder]\nid = feeder\n\n[csv_sink]\nid = "
                   "log\ninput[a] = @feeder\n"),
               ConfigError);
}

}  // namespace
}  // namespace asdf
