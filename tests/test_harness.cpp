// End-to-end harness tests: generated configurations build real DAGs,
// training produces usable models, and a scaled-down experiment
// fingerpoints an injected fault. These are the slowest tests in the
// suite (a few seconds each).
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/ini.h"
#include "core/fpt_core.h"
#include "harness/pipelines.h"
#include "modules/modules.h"

namespace asdf::harness {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    modules::registerBuiltinModules();
    // One shared scaled-down training run for all experiment tests.
    model_ = new analysis::BlackBoxModel(trainModel(baseSpec()));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static ExperimentSpec baseSpec() {
    ExperimentSpec spec;
    spec.slaves = 8;
    spec.duration = 900.0;
    spec.trainDuration = 300.0;
    spec.trainWarmup = 90.0;
    spec.seed = 4242;
    spec.centroids = 8;
    spec.fault.node = 3;
    spec.fault.startTime = 250.0;
    return spec;
  }

  static analysis::BlackBoxModel* model_;
};

analysis::BlackBoxModel* HarnessTest::model_ = nullptr;

TEST_F(HarnessTest, GeneratedConfigsParse) {
  PipelineParams params;
  params.slaves = 5;
  const IniFile bb = parseIni(buildBlackBoxConfig(params));
  // Per slave: sadc + knn + ibuffer; plus one agg_bb group, the
  // merge and print.
  EXPECT_EQ(bb.sections.size(), 5u * 3u + 3u);
  const IniFile wb = parseIni(buildWhiteBoxConfig(params));
  EXPECT_EQ(wb.sections.size(), 5u * 2u + 3u);
  const IniFile both = parseIni(buildCombinedConfig(params));
  EXPECT_EQ(both.sections.size(), bb.sections.size() + wb.sections.size());
}

TEST_F(HarnessTest, TrainedModelHasExpectedShape) {
  EXPECT_EQ(model_->states(), 8u);
  EXPECT_EQ(model_->dims(), 82u);  // 64 node + 18 NIC metrics
  for (double s : model_->sigmas) EXPECT_GT(s, 0.0);
}

TEST_F(HarnessTest, FaultFreeRunHasLowFalsePositiveRate) {
  ExperimentSpec spec = baseSpec();
  spec.fault.type = faults::FaultType::kNone;
  const ExperimentResult result = runExperiment(spec, *model_);
  EXPECT_GT(result.blackBox.size(), 50u);
  EXPECT_GT(result.whiteBox.size(), 50u);
  EXPECT_LT(analysis::flaggedFractionPct(result.blackBox), 8.0);
  EXPECT_LT(analysis::flaggedFractionPct(result.whiteBox), 8.0);
  EXPECT_GT(result.jobsCompleted, 0);
}

TEST_F(HarnessTest, CpuHogIsFingerpointedByBlackBox) {
  ExperimentSpec spec = baseSpec();
  spec.fault.type = faults::FaultType::kCpuHog;
  const ExperimentResult result = runExperiment(spec, *model_);
  const ExperimentSummary summary = summarize(result);
  EXPECT_GT(summary.blackBox.eval.balancedAccuracyPct(), 70.0);
  EXPECT_GE(summary.blackBox.latencySeconds, 0.0);
  EXPECT_GT(summary.combined.eval.balancedAccuracyPct(), 70.0);
}

TEST_F(HarnessTest, ReduceHangIsFingerpointedByWhiteBox) {
  ExperimentSpec spec = baseSpec();
  spec.fault.type = faults::FaultType::kHadoop2080;
  const ExperimentResult result = runExperiment(spec, *model_);
  const ExperimentSummary summary = summarize(result);
  // HADOOP-2080 stays dormant until a reduce on the sick node reaches
  // its sort phase — the paper reports exactly this: long latencies
  // and depressed accuracy for reduce hangs. Assert that the culprit
  // IS eventually fingerpointed, and that once the hang manifests the
  // white-box analysis keeps flagging it.
  ASSERT_GE(summary.whiteBox.latencySeconds, 0.0);
  analysis::GroundTruth postManifest = result.truth;
  postManifest.faultStart =
      result.truth.faultStart + summary.whiteBox.latencySeconds;
  const analysis::EvalResult post =
      analysis::evaluate(result.whiteBox, postManifest);
  EXPECT_GT(post.balancedAccuracyPct(), 60.0);
}

TEST_F(HarnessTest, MonitoringCostIsNegligible) {
  ExperimentSpec spec = baseSpec();
  spec.fault.type = faults::FaultType::kNone;
  const ExperimentResult result = runExperiment(spec, *model_);
  // The paper's Table 3 bound: everything well under 1% of a core.
  EXPECT_LT(result.sadcRpcdCpuPct, 1.0);
  EXPECT_LT(result.hadoopLogRpcdCpuPct, 1.0);
  EXPECT_GT(result.sadcRpcdCpuPct, 0.0);
  EXPECT_GT(result.fptCoreCpuPct, 0.0);
  EXPECT_GT(result.fptCoreMemMb, 0.0);
}

TEST_F(HarnessTest, RpcBandwidthMatchesTable4Shape) {
  ExperimentSpec spec = baseSpec();
  spec.fault.type = faults::FaultType::kNone;
  const ExperimentResult result = runExperiment(spec, *model_);
  ASSERT_EQ(result.rpcChannels.size(), 3u);
  double totalPerIter = 0.0;
  for (const auto& ch : result.rpcChannels) {
    EXPECT_EQ(ch.connects, spec.slaves);
    EXPECT_GT(ch.calls, 0);
    // Static overhead ~2 kB per node per channel, per-iteration under
    // a few kB/s (Table 4's order of magnitude).
    EXPECT_GT(ch.staticOverheadKb, 1.0);
    EXPECT_LT(ch.staticOverheadKb, 4.0);
    EXPECT_GT(ch.perIterationKbPerSec, 0.05);
    EXPECT_LT(ch.perIterationKbPerSec, 5.0);
    totalPerIter += ch.perIterationKbPerSec;
  }
  EXPECT_LT(totalPerIter, 8.0);
}

TEST_F(HarnessTest, ThresholdSweepUsesRecordedScores) {
  ExperimentSpec spec = baseSpec();
  spec.fault.type = faults::FaultType::kCpuHog;
  const ExperimentResult result = runExperiment(spec, *model_);
  // Higher thresholds can only reduce flagged decisions.
  long prevFlags = 1L << 40;
  for (double threshold : {0.0, 20.0, 60.0, 120.0}) {
    const auto swept = analysis::applyThreshold(result.blackBox, threshold);
    long flags = 0;
    for (const auto& r : swept) {
      for (double f : r.flags) flags += f > 0.5 ? 1 : 0;
    }
    EXPECT_LE(flags, prevFlags);
    prevFlags = flags;
  }
}

TEST_F(HarnessTest, ExperimentsAreReproducible) {
  ExperimentSpec spec = baseSpec();
  spec.duration = 400.0;
  spec.fault.type = faults::FaultType::kCpuHog;
  const ExperimentResult a = runExperiment(spec, *model_);
  const ExperimentResult b = runExperiment(spec, *model_);
  ASSERT_EQ(a.blackBox.size(), b.blackBox.size());
  for (std::size_t i = 0; i < a.blackBox.size(); ++i) {
    EXPECT_EQ(a.blackBox[i].flags, b.blackBox[i].flags);
  }
  EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
}

// Training keeps only the seconds after the warm-up: a spec with none
// is refused, naming both values, before anything is simulated (an
// empty model would fail only later, inside a run).
TEST(HarnessSpec, TrainingNoLongerThanWarmupIsRefused) {
  ExperimentSpec spec;
  spec.slaves = 50;
  spec.trainDuration = 90.0;
  spec.trainWarmup = 90.0;
  try {
    trainModel(spec);
    ADD_FAILURE() << "trained on an empty window";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trainDuration (90 s)"), std::string::npos) << what;
    EXPECT_NE(what.find("trainWarmup (90 s)"), std::string::npos) << what;
  }
  EXPECT_THROW(validateSpec(spec), ConfigError);
  spec.trainDuration = 91.0;
  EXPECT_NO_THROW(validateSpec(spec));
}

TEST(HarnessSpec, FaultNodeOutsideTheClusterIsRefused) {
  ExperimentSpec spec;
  spec.slaves = 4;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = 0;
  EXPECT_THROW(validateSpec(spec), ConfigError);
  spec.fault.node = 5;
  EXPECT_THROW(validateSpec(spec), ConfigError);
  spec.fault.node = 4;
  EXPECT_NO_THROW(validateSpec(spec));
  spec.fault.type = faults::FaultType::kNone;
  spec.fault.node = 5;
  EXPECT_NO_THROW(validateSpec(spec));
}

}  // namespace
}  // namespace asdf::harness
