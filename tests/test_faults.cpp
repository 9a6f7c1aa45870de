#include "faults/faults.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "metrics/catalog.h"
#include "sim/engine.h"

namespace asdf::faults {
namespace {

hadoop::HadoopParams smallParams() {
  hadoop::HadoopParams p;
  p.slaveCount = 4;
  return p;
}

TEST(FaultNames, RoundTrip) {
  for (FaultType t : allFaults()) {
    EXPECT_EQ(faultFromName(faultName(t)), t);
  }
  EXPECT_EQ(faultFromName("none"), FaultType::kNone);
  EXPECT_EQ(faultFromName(""), FaultType::kNone);
  EXPECT_THROW(faultFromName("bogus"), ConfigError);
  EXPECT_EQ(allFaults().size(), 6u);  // Table 2
}

TEST(FaultInjector, ActivatesAtScheduledTime) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 1, engine);
  cluster.start();
  FaultSpec spec;
  spec.type = FaultType::kPacketLoss;
  spec.node = 2;
  spec.startTime = 50.0;
  FaultInjector injector(cluster, spec);
  injector.arm();
  engine.runUntil(49.0);
  EXPECT_FALSE(injector.active());
  EXPECT_DOUBLE_EQ(cluster.node(2).nic().lossRate(), 0.0);
  engine.runUntil(51.0);
  EXPECT_TRUE(injector.active());
  EXPECT_DOUBLE_EQ(cluster.node(2).nic().lossRate(), 0.5);
}

TEST(FaultInjector, DeactivatesAtEndTime) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 2, engine);
  cluster.start();
  FaultSpec spec;
  spec.type = FaultType::kPacketLoss;
  spec.node = 1;
  spec.startTime = 10.0;
  spec.endTime = 20.0;
  FaultInjector injector(cluster, spec);
  injector.arm();
  engine.runUntil(30.0);
  EXPECT_FALSE(injector.active());
  EXPECT_DOUBLE_EQ(cluster.node(1).nic().lossRate(), 0.0);
  EXPECT_DOUBLE_EQ(injector.endedAt(), 20.0);
}

TEST(FaultInjector, ApplicationFaultsFlipNodeFlags) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 3, engine);
  cluster.start();
  for (auto [type, flag] :
       std::vector<std::pair<FaultType, bool hadoop::NodeFaults::*>>{
           {FaultType::kHadoop1036, &hadoop::NodeFaults::mapHang},
           {FaultType::kHadoop1152, &hadoop::NodeFaults::reduceCopyFail},
           {FaultType::kHadoop2080, &hadoop::NodeFaults::reduceSortHang}}) {
    FaultSpec spec;
    spec.type = type;
    spec.node = 3;
    spec.startTime = 0.0;
    FaultInjector injector(cluster, spec);
    injector.arm();
    engine.runUntil(engine.now() + 1.0);
    EXPECT_TRUE(cluster.node(3).faults().*flag) << faultName(type);
  }
}

TEST(FaultInjector, CpuHogAchievesTargetUtilization) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 4, engine);
  cluster.start();
  FaultSpec spec;
  spec.type = FaultType::kCpuHog;
  spec.node = 1;
  spec.startTime = 5.0;
  FaultInjector injector(cluster, spec);
  injector.arm();
  engine.runUntil(60.0);
  // With an idle node the hog should sit right at 70% of 4 cores.
  const auto snap = cluster.node(1).sadcCollect();
  EXPECT_GT(snap.node[metrics::kCpuUserPct], 55.0);
  // The hog process appears in the tracked-process metrics.
  bool sawHog = false;
  for (const auto& [name, v] : snap.processes) {
    if (name == "cpuhog") {
      sawHog = true;
      EXPECT_GT(v[metrics::kProcCpuUserPct], 100.0);  // >1 core
    }
  }
  EXPECT_TRUE(sawHog);
}

TEST(FaultInjector, DiskHogWritesAndFinishes) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 5, engine);
  cluster.start();
  FaultSpec spec;
  spec.type = FaultType::kDiskHog;
  spec.node = 2;
  spec.startTime = 0.0;
  spec.diskHogBytes = 1.0e9;  // scaled down for the test
  FaultInjector injector(cluster, spec);
  injector.arm();
  engine.runUntil(10.0);
  EXPECT_GT(injector.diskHogWritten(), 5.0e8);
  EXPECT_TRUE(injector.active());
  engine.runUntil(60.0);
  // The 1 GB write finished; the hog exits and records when.
  EXPECT_FALSE(injector.active());
  EXPECT_NEAR(injector.diskHogWritten(), 1.0e9, 1.0e6);
  EXPECT_GT(injector.endedAt(), 0.0);
}

TEST(FaultInjector, DiskHogSaturatesDiskCounters) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 6, engine);
  cluster.start();
  FaultSpec spec;
  spec.type = FaultType::kDiskHog;
  spec.node = 2;
  spec.startTime = 0.0;
  FaultInjector injector(cluster, spec);
  injector.arm();
  engine.runUntil(20.0);
  const auto snap = cluster.node(2).sadcCollect();
  // Writing flat out: ~80 MB/s -> bwrtn ~ 156k sectors/s.
  EXPECT_GT(snap.node[metrics::kIoWriteBlocksPerSec], 1.0e5);
}

// A fault lands on a slave, ids 1..slaves: node 0 is the master (a
// fault there would leave the ground truth saying fault-free), and a
// node past the cluster has no Node to hook.
TEST(FaultValidation, NodeOutsideTheSlavesIsRefusedNamingTheRange) {
  FaultSpec spec;
  spec.type = FaultType::kCpuHog;
  for (NodeId node : {0, 5, 9}) {
    spec.node = node;
    try {
      validateFault(spec, 4);
      ADD_FAILURE() << "node " << node << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("out of range [1, 4]"),
                std::string::npos)
          << e.what();
    }
  }
  for (NodeId node : {1, 4}) {
    spec.node = node;
    EXPECT_NO_THROW(validateFault(spec, 4)) << node;
  }
}

TEST(FaultValidation, NoneIsAcceptedWithAnyNode) {
  FaultSpec spec;  // kNone
  for (NodeId node : {kInvalidNode, 0, 5, 1000}) {
    spec.node = node;
    EXPECT_NO_THROW(validateFault(spec, 4)) << node;
  }
}

TEST(FaultInjector, RefusesANodeOutsideTheCluster) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 3, engine);
  FaultSpec spec;
  spec.type = FaultType::kCpuHog;
  spec.node = 5;
  EXPECT_THROW(FaultInjector(cluster, spec), ConfigError);
}

TEST(FaultInjector, NoneFaultIsInert) {
  sim::SimEngine engine;
  hadoop::Cluster cluster(smallParams(), 7, engine);
  cluster.start();
  FaultSpec spec;  // kNone
  FaultInjector injector(cluster, spec);
  injector.arm();
  engine.runUntil(20.0);
  EXPECT_FALSE(injector.active());
}

}  // namespace
}  // namespace asdf::faults
