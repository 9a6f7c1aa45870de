// Tiered-topology regression: interposing the aggregation tier
// (agg_bb/agg_wb reduce stages plus the root merge modules) must leave
// the experiment's alarms and monitoring events byte-identical to the
// flat topology on the same seed — across group shapes, executors, the
// fault-tolerant collection path, monitoring faults (unmonitorable
// exclusion + quorum), and the replay transport. See DESIGN.md §12.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "harness/experiment.h"
#include "harness/pipelines.h"
#include "harness/scenario_matrix.h"
#include "modules/modules.h"

namespace asdf::harness {
namespace {

ExperimentSpec baseSpec() {
  modules::registerBuiltinModules();
  ExperimentSpec spec;
  spec.slaves = 9;
  spec.duration = 150.0;
  spec.trainDuration = 80.0;
  spec.trainWarmup = 20.0;
  spec.seed = 2026;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = 5;
  spec.fault.startTime = 60.0;
  return spec;
}

void expectIdenticalSeries(const analysis::AlarmSeries& a,
                           const analysis::AlarmSeries& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << label << " alarm " << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << label << " alarm " << i;
    EXPECT_EQ(a[i].scores, b[i].scores) << label << " alarm " << i;
    EXPECT_EQ(a[i].health, b[i].health) << label << " alarm " << i;
  }
}

void expectIdenticalResults(const ExperimentResult& flat,
                            const ExperimentResult& tiered,
                            const std::string& label) {
  EXPECT_FALSE(flat.blackBox.empty()) << label;
  EXPECT_FALSE(flat.whiteBox.empty()) << label;
  expectIdenticalSeries(flat.blackBox, tiered.blackBox,
                        label + " black-box");
  expectIdenticalSeries(flat.whiteBox, tiered.whiteBox,
                        label + " white-box");
  ASSERT_EQ(flat.monitoringEvents.size(), tiered.monitoringEvents.size())
      << label;
  for (std::size_t i = 0; i < flat.monitoringEvents.size(); ++i) {
    const core::MonitoringEvent& a = flat.monitoringEvents[i];
    const core::MonitoringEvent& b = tiered.monitoringEvents[i];
    EXPECT_EQ(a.time, b.time) << label << " event " << i;
    EXPECT_EQ(a.channel, b.channel) << label << " event " << i;
    EXPECT_EQ(a.survivors, b.survivors) << label << " event " << i;
    EXPECT_EQ(a.quorum, b.quorum) << label << " event " << i;
    EXPECT_EQ(a.belowQuorum, b.belowQuorum) << label << " event " << i;
    EXPECT_EQ(a.unmonitorable, b.unmonitorable) << label << " event " << i;
  }
}

// FNV-1a 64 over what fingerprintAlarms() leaves out: the per-window
// health codes and every MonitoringEvent field.
std::uint64_t fingerprintMonitoring(const ExperimentResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto bytes = [&h](const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  auto num = [&bytes](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  };
  for (const analysis::AlarmSeries* series : {&r.blackBox, &r.whiteBox}) {
    for (const analysis::AlarmRecord& record : *series) {
      for (const double code : record.health) num(code);
    }
  }
  for (const core::MonitoringEvent& e : r.monitoringEvents) {
    num(e.time);
    bytes(e.channel.data(), e.channel.size());
    num(e.survivors);
    num(e.quorum);
    num(e.belowQuorum ? 1.0 : 0.0);
    for (const std::string& label : e.unmonitorable) {
      bytes(label.data(), label.size());
      bytes(";", 1);
    }
  }
  return h;
}

// Fixed references for the flat (one-group) output. They were recorded
// with the standalone per-node fingerpointers the merge path replaced,
// so the one-group merge is held to an independent implementation, not
// only to itself with more groups.
TEST(Tiered, FlatOutputMatchesPinnedReference) {
  ExperimentSpec spec = baseSpec();
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult plain = runExperiment(spec, model);
  EXPECT_EQ(0x726be62e76390777ULL, fingerprintAlarms(plain.blackBox));
  EXPECT_EQ(0x3d2f7e7ddbb68d3bULL, fingerprintAlarms(plain.whiteBox));
  EXPECT_EQ(0xd16479eb9cc11e63ULL, fingerprintMonitoring(plain));

  spec.faultTolerantRpc = true;
  faults::MonitoringFaultSpec mf;
  mf.kind = faults::MonitoringFaultKind::kCrash;
  mf.node = 2;
  mf.startTime = 70.0;
  spec.monitoringFaults.push_back(mf);
  const ExperimentResult degraded = runExperiment(spec, model);
  EXPECT_FALSE(degraded.monitoringEvents.empty());
  EXPECT_EQ(0x10dc1cb709cc9fbfULL, fingerprintAlarms(degraded.blackBox));
  EXPECT_EQ(0x4d7f99e7efc25faeULL, fingerprintAlarms(degraded.whiteBox));
  EXPECT_EQ(0x1f3235394866cbd3ULL, fingerprintMonitoring(degraded));
}

TEST(Tiered, AlarmsByteIdenticalToFlat) {
  ExperimentSpec spec = baseSpec();
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult flat = runExperiment(spec, model);

  spec.tiered = true;
  spec.tierGroups = {3, 3, 3};
  const ExperimentResult even = runExperiment(spec, model);
  expectIdenticalResults(flat, even, "even groups");

  spec.tierGroups = {4, 3, 2};
  const ExperimentResult skewed = runExperiment(spec, model);
  expectIdenticalResults(flat, skewed, "skewed groups");

  // Auto topology (~sqrt(n) groups).
  spec.tierGroups.clear();
  spec.aggregators = 0;
  const ExperimentResult autoTopo = runExperiment(spec, model);
  expectIdenticalResults(flat, autoTopo, "auto groups");
}

TEST(Tiered, AlarmsByteIdenticalUnderPoolExecutor) {
  ExperimentSpec spec = baseSpec();
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult flat = runExperiment(spec, model);

  spec.tiered = true;
  spec.tierGroups = {4, 3, 2};
  spec.threads = 4;
  const ExperimentResult pooled = runExperiment(spec, model);
  expectIdenticalResults(flat, pooled, "pool executor");
}

TEST(Tiered, AlarmsByteIdenticalWithFaultTolerantRpc) {
  ExperimentSpec spec = baseSpec();
  spec.faultTolerantRpc = true;
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult flat = runExperiment(spec, model);

  spec.tiered = true;
  spec.tierGroups = {3, 3, 3};
  const ExperimentResult tiered = runExperiment(spec, model);
  expectIdenticalResults(flat, tiered, "ft-rpc");
}

TEST(Tiered, QuorumSemanticsSurviveTierSplit) {
  // Crash node 2's daemons mid-run: it must appear in the same
  // unmonitorable transitions, with the same survivor counts and
  // quorum gating, whether the analysis is flat or tiered — and the
  // alarms must still be byte-identical.
  ExperimentSpec spec = baseSpec();
  faults::MonitoringFaultSpec mf;
  mf.kind = faults::MonitoringFaultKind::kCrash;
  mf.node = 2;
  mf.startTime = 70.0;
  spec.monitoringFaults.push_back(mf);

  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult flat = runExperiment(spec, model);
  EXPECT_FALSE(flat.monitoringEvents.empty());

  spec.tiered = true;
  spec.tierGroups = {2, 4, 3};  // the crashed node sits inside group 0
  const ExperimentResult tiered = runExperiment(spec, model);
  expectIdenticalResults(flat, tiered, "monitoring fault");
}

TEST(Tiered, ReplayReproducesTieredRun) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "asdf_tiered_replay").string();
  std::filesystem::remove_all(dir);

  ExperimentSpec spec = baseSpec();
  spec.faultTolerantRpc = true;
  spec.tiered = true;
  spec.tierGroups = {3, 3, 3};
  const analysis::BlackBoxModel model = trainModel(spec);

  spec.archiveDir = dir;
  const ExperimentResult recorded = runExperiment(spec, model);

  spec.transport = TransportMode::kReplay;
  const ExperimentResult replayed = runExperiment(spec, model);
  expectIdenticalResults(recorded, replayed, "replay");

  std::filesystem::remove_all(dir);
}

TEST(Tiered, SummaryChannelsReportedAsTierTwo) {
  ExperimentSpec spec = baseSpec();
  spec.tiered = true;
  spec.tierGroups = {3, 3, 3};
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult result = runExperiment(spec, model);

  bool sawBb = false, sawWb = false, sawTier1 = false;
  for (const RpcChannelReport& ch : result.rpcChannels) {
    if (ch.name == "bb-summary-tcp") {
      sawBb = true;
      EXPECT_EQ(2, ch.tier);
      EXPECT_GT(ch.calls, 0);
      EXPECT_GT(ch.perIterationKbPerSec, 0.0);
    } else if (ch.name == "wb-summary-tcp") {
      sawWb = true;
      EXPECT_EQ(2, ch.tier);
      EXPECT_GT(ch.calls, 0);
    } else {
      sawTier1 = true;
      EXPECT_EQ(1, ch.tier);
    }
  }
  EXPECT_TRUE(sawBb);
  EXPECT_TRUE(sawWb);
  EXPECT_TRUE(sawTier1);
}

// Every health vector is indexed by node id - 1 under racks and tiers
// alike. Ragged racks of 4/4/2 set the aggregation groups; a partition
// of node 7's daemons marks index 6, and only index 6, unmonitorable,
// and a node-7 fault is scored against index 6.
TEST(Tiered, HealthIndexFollowsNodeIdUnderRacks) {
  ExperimentSpec spec = baseSpec();
  spec.slaves = 10;
  spec.topology.racks = 3;
  spec.topology.nodesPerRack = 4;
  spec.tiered = true;  // no explicit groups: one per rack
  spec.faultTolerantRpc = true;
  spec.fault.node = 7;
  faults::MonitoringFaultSpec mf;
  mf.kind = faults::MonitoringFaultKind::kPartition;
  mf.node = 7;
  mf.startTime = 70.0;
  mf.endTime = 120.0;
  spec.monitoringFaults.push_back(mf);
  ASSERT_EQ((std::vector<int>{4, 4, 2}), tierGroupsFor(spec));

  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult result = runExperiment(spec, model);
  EXPECT_EQ(result.truth.slaveIndex, 6);

  for (const analysis::AlarmSeries* series :
       {&result.blackBox, &result.whiteBox}) {
    const char* label = series == &result.blackBox ? "black-box" : "white-box";
    int partitioned = 0;
    for (const analysis::AlarmRecord& rec : *series) {
      ASSERT_EQ(rec.health.size(), 10u) << label;
      for (std::size_t i = 0; i < rec.health.size(); ++i) {
        if (i != 6) {
          EXPECT_NE(rec.health[i], 2.0)
              << label << " index " << i << " at " << rec.time;
        }
      }
      if (rec.time >= mf.startTime + 10.0 && rec.time <= mf.endTime) {
        EXPECT_EQ(rec.health[6], 2.0) << label << " at " << rec.time;
        ++partitioned;
      }
    }
    EXPECT_GT(partitioned, 0) << label;
  }
}

TEST(Tiered, TopologyResolution) {
  ExperimentSpec spec;
  spec.slaves = 10;
  spec.tierGroups = {1, 7, 2};
  EXPECT_EQ(spec.tierGroups, tierGroupsFor(spec));

  spec.tierGroups.clear();
  spec.aggregators = 3;
  EXPECT_EQ((std::vector<int>{4, 3, 3}), tierGroupsFor(spec));

  spec.aggregators = 0;  // auto: ceil(sqrt(10)) = 4 groups
  EXPECT_EQ((std::vector<int>{3, 3, 2, 2}), tierGroupsFor(spec));

  spec.slaves = 5000;
  std::vector<int> groups = tierGroupsFor(spec);
  EXPECT_EQ(71u, groups.size());
  int total = 0;
  for (int g : groups) total += g;
  EXPECT_EQ(5000, total);
}

TEST(Tiered, ConfigRejectsBadTopology) {
  PipelineParams p;
  p.slaves = 9;
  p.tierGroups = {3, 3};  // covers 6, not 9
  EXPECT_THROW(buildCombinedConfig(p), ConfigError);
  p.tierGroups = {3, 3, 0};
  EXPECT_THROW(buildCombinedConfig(p), ConfigError);
  p.tierGroups = {9};
  EXPECT_NO_THROW(buildCombinedConfig(p));
  EXPECT_THROW(buildAggregatorConfig(p, 0, 3), ConfigError);
  EXPECT_THROW(buildAggregatorConfig(p, 1, 0), ConfigError);
}

}  // namespace
}  // namespace asdf::harness
