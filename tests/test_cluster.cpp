// Integration tests of the Hadoop substrate: jobs actually run to
// completion, logs get written, metrics respond, fault-tolerance
// machinery (retries, speculation) engages.
#include "hadoop/cluster.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/strings.h"
#include "faults/faults.h"
#include "faults/scenarios.h"
#include "hadooplog/parser.h"
#include "metrics/catalog.h"
#include "sim/engine.h"
#include "workload/gridmix.h"

namespace asdf::hadoop {
namespace {

HadoopParams smallParams(int slaves = 4) {
  HadoopParams p;
  p.slaveCount = slaves;
  return p;
}

JobSpec smallJob() {
  JobSpec spec;
  spec.inputBytes = 64.0e6;  // 4 blocks
  spec.numReduces = 2;
  spec.mapCpuPerByte = 5.0e-7;
  spec.mapOutputRatio = 0.5;
  spec.reduceCpuPerByte = 2.0e-7;
  spec.outputRatio = 0.25;
  return spec;
}

TEST(Cluster, RunsOneJobToCompletion) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 1, engine);
  cluster.start();
  cluster.jobTracker().submit(smallJob(), 0.0);
  engine.runUntil(600.0);
  EXPECT_EQ(cluster.jobTracker().jobsCompleted(), 1);
  EXPECT_TRUE(cluster.jobTracker().activeJobs().empty());
  const Job& job = *cluster.jobTracker().completedJobs().front();
  EXPECT_TRUE(job.complete());
  EXPECT_GT(job.finishTime, job.submitTime);
}

TEST(Cluster, JobCompletionCallbackFires) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 2, engine);
  int completions = 0;
  cluster.onJobComplete = [&](Job&, SimTime) { ++completions; };
  cluster.start();
  cluster.jobTracker().submit(smallJob(), 0.0);
  engine.runUntil(600.0);
  EXPECT_EQ(completions, 1);
}

TEST(Cluster, TaskLogsAreWritten) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 3, engine);
  cluster.start();
  cluster.jobTracker().submit(smallJob(), 0.0);
  engine.runUntil(600.0);
  std::size_t ttLines = 0;
  std::size_t dnLines = 0;
  bool sawLaunch = false;
  bool sawDone = false;
  for (Node* node : cluster.slaveNodes()) {
    ttLines += node->ttLog().lineCount();
    dnLines += node->dnLog().lineCount();
    for (std::size_t i = 0; i < node->ttLog().lineCount(); ++i) {
      if (contains(node->ttLog().line(i), "LaunchTaskAction")) sawLaunch = true;
      if (contains(node->ttLog().line(i), "is done")) sawDone = true;
    }
  }
  EXPECT_GT(ttLines, 10u);
  EXPECT_GT(dnLines, 4u);  // input block reads at minimum
  EXPECT_TRUE(sawLaunch);
  EXPECT_TRUE(sawDone);
}

TEST(Cluster, LogsParseBackToConsistentStates) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 4, engine);
  cluster.start();
  cluster.jobTracker().submit(smallJob(), 0.0);
  engine.runUntil(600.0);
  for (Node* node : cluster.slaveNodes()) {
    hadooplog::TtLogParser parser;
    parser.startAt(0);
    parser.consume(node->ttLog().linesFrom(0));
    parser.poll(600.0);
    // All launched tasks completed: no task should remain open.
    EXPECT_EQ(parser.openTaskCount(), 0u) << "node " << node->id();
    EXPECT_EQ(parser.ignoredLineCount(), 0u) << "node " << node->id();
  }
}

TEST(Cluster, MetricsRespondToLoad) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 5, engine);
  cluster.start();
  // Warm up idle, snapshot, then load the cluster and compare.
  engine.runUntil(30.0);
  double idleCpu = 0.0;
  for (Node* node : cluster.slaveNodes()) {
    idleCpu += node->sadcCollect().node[metrics::kCpuUserPct];
  }
  JobSpec heavy = smallJob();
  heavy.inputBytes = 512.0e6;
  heavy.mapCpuPerByte = 2.0e-6;
  cluster.jobTracker().submit(heavy, engine.now());
  engine.runUntil(70.0);  // sample mid-execution
  double busyCpu = 0.0;
  for (Node* node : cluster.slaveNodes()) {
    busyCpu += node->sadcCollect().node[metrics::kCpuUserPct];
  }
  EXPECT_GT(busyCpu, idleCpu + 50.0);
}

TEST(Cluster, SnapshotsAdvanceEverySecond) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 6, engine);
  cluster.start();
  engine.runUntil(10.0);
  for (Node* node : cluster.slaveNodes()) {
    EXPECT_DOUBLE_EQ(node->lastSnapshotTime(), 10.0);
  }
}

TEST(Cluster, MultipleJobsShareTheCluster) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(8), 7, engine);
  cluster.start();
  for (int i = 0; i < 3; ++i) {
    cluster.jobTracker().submit(smallJob(), 0.0);
  }
  engine.runUntil(900.0);
  EXPECT_EQ(cluster.jobTracker().jobsCompleted(), 3);
}

TEST(Cluster, HungMapTriggersSpeculationAndKill) {
  sim::SimEngine engine;
  HadoopParams params = smallParams();
  Cluster cluster(params, 8, engine);
  cluster.start();
  // Every map on slave 2 hangs from the start. The job is big enough
  // (32 maps over 4 slaves) that slave 2 certainly hosts some.
  cluster.node(2).faults().mapHang = true;
  JobSpec spec = smallJob();
  spec.inputBytes = 512.0e6;
  cluster.jobTracker().submit(spec, 0.0);
  engine.runUntil(1500.0);
  // Speculative backups rescue the job despite the hangs.
  EXPECT_EQ(cluster.jobTracker().jobsCompleted(), 1);
  EXPECT_GT(cluster.jobTracker().speculativeLaunches(), 0);
  // The kill shows up in slave 2's TaskTracker log.
  bool sawKill = false;
  for (std::size_t i = 0; i < cluster.node(2).ttLog().lineCount(); ++i) {
    if (contains(cluster.node(2).ttLog().line(i), "KillTaskAction")) {
      sawKill = true;
    }
  }
  EXPECT_TRUE(sawKill);
}

TEST(Cluster, CleanupEmitsDeleteBlockEvents) {
  sim::SimEngine engine;
  HadoopParams params = smallParams();
  params.outputDeleteDelay = 30.0;
  Cluster cluster(params, 9, engine);
  cluster.start();
  cluster.jobTracker().submit(smallJob(), 0.0);
  engine.runUntil(900.0);
  bool sawDelete = false;
  for (Node* node : cluster.slaveNodes()) {
    for (std::size_t i = 0; i < node->dnLog().lineCount(); ++i) {
      if (contains(node->dnLog().line(i), "Deleting block")) sawDelete = true;
    }
  }
  EXPECT_TRUE(sawDelete);
}

TEST(Cluster, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    sim::SimEngine engine;
    Cluster cluster(smallParams(), seed, engine);
    cluster.start();
    cluster.jobTracker().submit(smallJob(), 0.0);
    engine.runUntil(400.0);
    std::string logs;
    for (Node* node : cluster.slaveNodes()) {
      for (std::size_t i = 0; i < node->ttLog().lineCount(); ++i) {
        logs += node->ttLog().line(i);
        logs += '\n';
      }
    }
    return logs;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// FNV-1a 64, fed one 64-bit word at a time.
class Fnv64 {
 public:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xFFu;
      h_ *= 1099511628211ULL;
    }
  }
  void real(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    word(bits);
  }
  void text(const std::string& s) {
    word(s.size());
    for (const char c : s) word(static_cast<unsigned char>(c));
  }
  void reals(const std::vector<double>& xs) {
    word(xs.size());
    for (const double x : xs) real(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// Hashes every slave's sadc snapshot, every second through `seconds`:
// the simulator's output bits, process table included.
std::uint64_t snapshotStreamHash(sim::SimEngine& engine, Cluster& cluster,
                                 int seconds) {
  Fnv64 h;
  for (int t = 1; t <= seconds; ++t) {
    engine.runUntil(t);
    for (Node* node : cluster.slaveNodes()) {
      const metrics::SadcSnapshot& snap = node->sadcCollect();
      h.real(snap.time);
      h.reals(snap.node);
      h.reals(snap.nic);
      h.word(snap.processes.size());
      for (const auto& [name, values] : snap.processes) {
        h.text(name);
        h.reals(values);
      }
    }
  }
  return h.value();
}

// Pins the simulator's output bits: every slave's sadc snapshot, every
// second, over 600 s of GridMix on 24 slaves with a CPUHog that comes
// and goes (its tracked process joins and leaves the snapshot). The
// constant was computed before the simulator reused its snapshot
// buffers and skipped unconsumed syscall traces; any change to the
// simulated cluster moves it.
TEST(Cluster, SnapshotStreamMatchesParent) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(24), 77, engine);
  workload::GridMixGenerator gridmix(cluster, {}, 78);
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kCpuHog;
  spec.node = 5;
  spec.startTime = 200.0;
  spec.endTime = 400.0;
  faults::FaultInjector injector(cluster, spec);
  cluster.start();
  gridmix.start();
  injector.arm();
  Fnv64 h;
  for (int t = 1; t <= 600; ++t) {
    engine.runUntil(t);
    for (Node* node : cluster.slaveNodes()) {
      const metrics::SadcSnapshot& snap = node->sadcCollect();
      h.real(snap.time);
      h.reals(snap.node);
      h.reals(snap.nic);
      h.word(snap.processes.size());
      for (const auto& [name, values] : snap.processes) {
        h.text(name);
        h.reals(values);
      }
    }
  }
  EXPECT_GT(cluster.jobTracker().jobsCompleted(), 0);
  EXPECT_EQ(h.value(), 0x63e178dded592d22ULL);
}

// The same pin over a Table 2 DiskHog that finishes its write mid-run
// (so the injector ends itself), computed before the DiskHog and the
// CascadeHotspot scenario shared one writer.
TEST(Cluster, DiskHogSnapshotStreamMatchesParent) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(24), 77, engine);
  workload::GridMixGenerator gridmix(cluster, {}, 78);
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kDiskHog;
  spec.node = 5;
  spec.startTime = 200.0;
  spec.diskHogBytes = 8.0e9;
  faults::FaultInjector injector(cluster, spec);
  cluster.start();
  gridmix.start();
  injector.arm();
  const std::uint64_t hash = snapshotStreamHash(engine, cluster, 600);
  EXPECT_NE(injector.endedAt(), kNoTime);
  EXPECT_DOUBLE_EQ(injector.diskHogWritten(), spec.diskHogBytes);
  EXPECT_EQ(hash, 0xa48e8e0c73f29ad4ULL);
}

// The same pin over a CascadeHotspot on a three-rack cluster: the hog
// writes until done while its rack peers push repair traffic.
TEST(Cluster, CascadeHotspotSnapshotStreamMatchesParent) {
  sim::SimEngine engine;
  HadoopParams params = smallParams(24);
  params.topology.racks = 3;
  Cluster cluster(params, 77, engine);
  workload::GridMixGenerator gridmix(cluster, {}, 78);
  faults::ScenarioSpec spec;
  spec.cls = faults::ScenarioClass::kCascadeHotspot;
  spec.rack = 1;
  spec.startTime = 200.0;
  spec.cascadeDiskBytes = 8.0e9;
  faults::ScenarioInjector injector(cluster, spec);
  cluster.start();
  gridmix.start();
  injector.arm();
  const std::uint64_t hash = snapshotStreamHash(engine, cluster, 600);
  EXPECT_NE(injector.endedAt(), kNoTime);
  EXPECT_EQ(hash, 0x2538cd434b718b68ULL);
}

TEST(Cluster, TickCountMatchesDuration) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 10, engine);
  cluster.start();
  engine.runUntil(25.0);
  EXPECT_EQ(cluster.tickCount(), 25);
}

TEST(Cluster, SlaveAccessors) {
  sim::SimEngine engine;
  Cluster cluster(smallParams(), 11, engine);
  EXPECT_EQ(cluster.slaveNodes().size(), 4u);
  EXPECT_TRUE(cluster.node(0).isMaster());
  EXPECT_FALSE(cluster.node(1).isMaster());
  EXPECT_EQ(cluster.node(3).ip(), "10.250.0.4");
  EXPECT_EQ(cluster.taskTracker(2).nodeId(), 2);
}

}  // namespace
}  // namespace asdf::hadoop
