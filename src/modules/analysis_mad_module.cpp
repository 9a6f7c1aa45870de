// [analysis_mad] — black-box fingerpointing with a self-calibrating
// MAD decision rule (an alternative pluggable analysis; compare
// [analysis_bb_merge]'s fixed trained threshold).
//
// Parameters:
//   k = <MAD multiplier>  (default 6)
//
// Inputs:  l0..l(N-1) — per-node ibuffer arrays of knn state indices
// Outputs: alarms, scores (scores are critical-k values, sweepable)
#include <vector>

#include "analysis/bbmodel.h"
#include "analysis/mad.h"
#include "common/error.h"
#include "core/module.h"
#include "modules/modules.h"

namespace asdf::modules {

class AnalysisMadModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    k_ = ctx.numParam("k", 6.0);
    const analysis::BlackBoxModel& model =
        ctx.env().require<analysis::BlackBoxModel>("bb_model");
    numStates_ = model.states();
    inputs_ = numberedInputs(ctx, "l");
    if (inputs_.size() < 3) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] analysis_mad needs at least 3 node inputs");
    }
    std::string origins;
    for (const auto& name : inputs_) {
      if (!origins.empty()) origins += ";";
      origins += ctx.inputOrigin(name, 0);
    }
    outAlarms_ = ctx.addOutput("alarms", origins);
    outScores_ = ctx.addOutput("scores", origins);
    ctx.setInputTrigger(static_cast<int>(inputs_.size()));
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    for (const auto& name : inputs_) {
      if (!ctx.inputHasData(name, 0) || !ctx.inputFresh(name, 0)) return;
    }
    std::vector<std::vector<double>> histograms;
    histograms.reserve(inputs_.size());
    for (const auto& name : inputs_) {
      const core::Sample& sample = ctx.input(name, 0);
      if (!core::isVector(sample.value)) {
        throw ConfigError("analysis_mad expects array inputs");
      }
      const auto& window = core::asVector(sample.value);
      histograms.emplace_back(numStates_);
      analysis::stateHistogramInto(window.data(), window.size(),
                                   histograms.back().data(), numStates_);
    }
    analysis::PeerComparisonResult result =
        analysis::blackBoxMadCompare(histograms, k_);
    ctx.write(outAlarms_, std::move(result.flags));
    ctx.write(outScores_, std::move(result.scores));
  }

 private:
  double k_ = 6.0;
  std::size_t numStates_ = 0;
  std::vector<std::string> inputs_;
  int outAlarms_ = -1;
  int outScores_ = -1;
};

void registerAnalysisMadModule(core::ModuleRegistry& registry) {
  registry.registerType(
      "analysis_mad", [] { return std::make_unique<AnalysisMadModule>(); });
}

}  // namespace asdf::modules
