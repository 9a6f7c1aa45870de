// RootMerge (modules/merge.h) and the modules built on it:
//
// [analysis_bb_merge] — the black-box fingerpointer (Section 4.5).
// [analysis_wb_merge] — the white-box fingerpointer (Section 4.4).
//
// Consume one packed GroupSummary per aggregator group (agg_bb /
// agg_wb; a flat deployment is one group), merge the groups' median
// partials into the global median by count-and-select, and score every
// surviving node against it (analysis/partials.h: bit-identical to
// comparing the concatenated survivor rows directly). A node whose
// collection has failed arrives as unmonitorable: it is neither flagged
// nor counted in the median. Below `quorum` survivors, alarms are
// suppressed (all flags zero), and every change of the unmonitorable
// set or the quorum state emits a MonitoringEvent.
//
// Parameters:
//   threshold = <L1 distance threshold>   (black-box; default 60)
//   k         = <threshold multiplier>    (white-box; default 3)
//   quorum    = <min surviving peers for valid alarms>
//               (default 0 = majority: N/2 + 1, at least 3)
//
// Inputs:  s0..s(A-1) — one packed GroupSummary per group, whose
//          origins are the group's ';'-joined per-node labels in
//          ascending global order
// Outputs: alarms — 0/1 per node;  scores — the sweepable per-node
//          scores (Figures 6a/6b);  health — per-node monitoring health
//          code (0/1/2)
#include "modules/merge.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/strings.h"
#include "core/module.h"
#include "modules/modules.h"

namespace asdf::modules {

RootMerge::RootMerge(std::string channel, PeerAnalysis analysis,
                     double cutoff, std::vector<std::string> labels,
                     std::vector<std::size_t> groupSizes, int quorum)
    : analysis_(analysis),
      cutoff_(cutoff),
      labels_(std::move(labels)),
      groupSizes_(std::move(groupSizes)) {
  if (labels_.size() < 3) {
    throw ConfigError("[" + channel +
                      "] needs at least 3 nodes across its groups "
                      "(median peer comparison)");
  }
  last_.channel = std::move(channel);
  const int majority = static_cast<int>(labels_.size()) / 2 + 1;
  last_.quorum = quorum > 0 ? quorum : std::max(3, majority);
}

bool RootMerge::merge(const analysis::GroupSummary* const* groups,
                      SimTime time, std::vector<double>& flags,
                      std::vector<double>& scores,
                      std::vector<double>& health) {
  const std::size_t ngroups = groupSizes_.size();
  for (std::size_t g = 0; g < ngroups; ++g) {
    const analysis::GroupSummary& s = *groups[g];
    if (s.members != groupSizes_[g] || s.dims != groups[0]->dims ||
        (analysis_ == PeerAnalysis::kWhiteBox && !s.hasDev)) {
      return false;
    }
  }

  const std::size_t n = labels_.size();
  health.resize(n);
  unmonitorable_.clear();
  std::size_t offset = 0;
  for (std::size_t g = 0; g < ngroups; ++g) {
    const analysis::GroupSummary& s = *groups[g];
    for (std::size_t m = 0; m < s.members; ++m) {
      health[offset + m] = s.health[m];
      if (s.health[m] == 2.0) unmonitorable_.push_back(labels_[offset + m]);
    }
    offset += s.members;
  }
  const int survivors = static_cast<int>(n - unmonitorable_.size());
  // Peer comparison needs at least 3 participants to form a meaningful
  // median; below that (or below the quorum) any flag is guesswork.
  const bool belowQuorum = survivors < std::max(last_.quorum, 3);

  flags.assign(n, 0.0);
  scores.assign(n, 0.0);
  if (!belowQuorum) {
    if (analysis_ == PeerAnalysis::kBlackBox) {
      analysis::mergeBlackBoxSummaries(groups, ngroups, cutoff_, scratch_,
                                       flags.data(), scores.data());
    } else {
      analysis::mergeWhiteBoxSummaries(groups, ngroups, cutoff_, scratch_,
                                       flags.data(), scores.data());
    }
  }

  raised_ = unmonitorable_ != last_.unmonitorable ||
            belowQuorum != last_.belowQuorum;
  if (raised_) {
    last_.time = time;
    last_.survivors = survivors;
    last_.belowQuorum = belowQuorum;
    last_.unmonitorable = unmonitorable_;
  }
  return true;
}

namespace {

class MergeModule final : public core::Module {
 public:
  explicit MergeModule(PeerAnalysis analysis) : analysis_(analysis) {}

  void init(core::ModuleContext& ctx) override {
    const double cutoff = analysis_ == PeerAnalysis::kBlackBox
                              ? ctx.numParam("threshold", 60.0)
                              : ctx.numParam("k", 3.0);
    inputs_ = numberedInputs(ctx, "s");
    if (inputs_.empty()) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] needs at least one summary input");
    }

    // Each summary input's origin is its group's joined labels; the
    // concatenation is the per-node origin order.
    std::vector<std::string> labels;
    std::vector<std::size_t> groupSizes;
    for (const auto& name : inputs_) {
      const std::vector<std::string> group =
          split(ctx.inputOrigin(name, 0), ';');
      groupSizes.push_back(group.size());
      labels.insert(labels.end(), group.begin(), group.end());
    }
    const std::string origins = join(labels, ";");
    merge_.emplace(ctx.instanceId(), analysis_, cutoff, std::move(labels),
                   std::move(groupSizes),
                   static_cast<int>(ctx.intParam("quorum", 0)));

    outAlarms_ = ctx.addOutput("alarms", origins);
    outScores_ = ctx.addOutput("scores", origins);
    outHealth_ = ctx.addOutput("health", origins);
    ctx.setInputTrigger(static_cast<int>(inputs_.size()));
    summaries_.resize(inputs_.size());
    groups_.resize(inputs_.size());
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    // The black-box gate also wants every window fresh; the white-box
    // one checks presence only (the trigger count paces one run per
    // lockstep window). The pinned alarm series depend on both.
    for (const auto& name : inputs_) {
      if (!ctx.inputHasData(name, 0)) return;
      if (analysis_ == PeerAnalysis::kBlackBox && !ctx.inputFresh(name, 0)) {
        return;
      }
    }
    bool wellFormed = true;
    for (std::size_t g = 0; g < inputs_.size() && wellFormed; ++g) {
      const core::Sample& sample = ctx.input(inputs_[g], 0);
      if (!core::isVector(sample.value)) {
        throw ConfigError("[" + ctx.instanceId() +
                          "] expects packed summary inputs");
      }
      const auto& packed = core::asVector(sample.value);
      wellFormed = summaries_[g].unpack(packed.data(), packed.size());
      groups_[g] = &summaries_[g];
    }
    if (!wellFormed ||
        !merge_->merge(groups_.data(), ctx.now(), flagsBuilder_.acquire(),
                       scoresBuilder_.acquire(), healthBuilder_.acquire())) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] malformed group summary window");
    }
    if (const core::MonitoringEvent* event = merge_->transition();
        event != nullptr && ctx.env().monitoringSink) {
      ctx.env().monitoringSink(*event);
    }
    ctx.write(outAlarms_, flagsBuilder_.share());
    ctx.write(outScores_, scoresBuilder_.share());
    ctx.write(outHealth_, healthBuilder_.share());
  }

 private:
  PeerAnalysis analysis_;
  std::optional<RootMerge> merge_;
  // Reused per-window workspace: zero steady-state allocations.
  std::vector<analysis::GroupSummary> summaries_;
  std::vector<const analysis::GroupSummary*> groups_;
  core::VecBuilder flagsBuilder_;
  core::VecBuilder scoresBuilder_;
  core::VecBuilder healthBuilder_;
  std::vector<std::string> inputs_;
  int outAlarms_ = -1;
  int outScores_ = -1;
  int outHealth_ = -1;
};

}  // namespace

void registerMergeModules(core::ModuleRegistry& registry) {
  registry.registerType("analysis_bb_merge", [] {
    return std::make_unique<MergeModule>(PeerAnalysis::kBlackBox);
  });
  registry.registerType("analysis_wb_merge", [] {
    return std::make_unique<MergeModule>(PeerAnalysis::kWhiteBox);
  });
}

}  // namespace asdf::modules
