// [agg_bb] — the black-box reduce step of the aggregation tier.
// [agg_wb] — the white-box reduce step of the aggregation tier.
//
// One class for both (DESIGN.md §12). Runs next to a *group* of
// leaves, reads the group's monitoring health and publishes the
// group's GroupSummary (analysis::reduceGroup): the survivor rows plus
// their sorted median partials, instead of flagging anyone. Flagging,
// quorum gating and MonitoringEvents are the root's job
// ([analysis_bb_merge]/[analysis_wb_merge]): a group is too small a
// population to judge deviation against.
//
// Inputs:
//   agg_bb: l0..l(G-1) — one ibuffer window of knn state indices per
//           member; the rows are the windows' StateVector histograms
//           and health is the sadc channel's. Runs when every window
//           is fresh.
//   agg_wb: a0..a(G-1), d0..d(G-1) — per-member window means and
//           standard deviations from mavgvec (computed leaf-side; see
//           analysis/partials.h for why raw window sums never travel);
//           the rows are the means, a second partial covers the
//           stddevs, and health is the hadoop_log channel's. Runs when
//           every input is present.
// Outputs: summary — the packed GroupSummary (analysis/partials.h),
//          whose origin is the members' ';'-joined labels
//
// Environment:
//   "bb_model"      analysis::BlackBoxModel — agg_bb's state count
//   "rpc_client"    rpc::RpcClient — per-member health (optional)
//   "transports"    rpc::TransportRegistry — Table 4 accounting of the
//                   upward summary traffic (channel bb-summary-tcp or
//                   wb-summary-tcp, tier 2; optional)
//   "summary_board" rpc::SummaryBoard — live aggregator processes
//                   publish each window here for the serving loop
//                   (optional)
#include <vector>

#include "analysis/bbmodel.h"
#include "analysis/partials.h"
#include "analysis/peercompare.h"
#include "common/error.h"
#include "common/matrix.h"
#include "common/strings.h"
#include "core/module.h"
#include "modules/merge.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"
#include "rpc/summary.h"
#include "rpc/transport.h"

namespace asdf::modules {
namespace {

class ReduceModule final : public core::Module {
 public:
  explicit ReduceModule(PeerAnalysis analysis)
      : blackBox_(analysis == PeerAnalysis::kBlackBox),
        summaryChannel_(blackBox_ ? rpc::SummaryChannel::kBlackBox
                                  : rpc::SummaryChannel::kWhiteBox) {}

  void init(core::ModuleContext& ctx) override {
    client_ = ctx.env().get<rpc::RpcClient>("rpc_client");
    board_ = ctx.env().get<rpc::SummaryBoard>("summary_board");
    if (blackBox_) {
      numStates_ =
          ctx.env().require<analysis::BlackBoxModel>("bb_model").states();
      inputs_ = numberedInputs(ctx, "l");
    } else {
      inputs_ = numberedInputs(ctx, "a");
      devInputs_ = numberedInputs(ctx, "d");
      if (devInputs_.size() != inputs_.size()) {
        throw ConfigError("[" + ctx.instanceId() +
                          "] needs one 'd' input per 'a' input");
      }
    }
    if (inputs_.empty()) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] needs at least one node input");
    }

    std::vector<std::string> labels;
    for (const auto& name : inputs_) {
      labels.push_back(ctx.inputOrigin(name, 0));
      nodeIds_.push_back(rpc::nodeIdFromOrigin(labels.back()));
    }
    // One label per member, empty ones included: the root merge counts
    // the group's members from this origin.
    outSummary_ = ctx.addOutput("summary", join(labels, ";"));
    ctx.setInputTrigger(static_cast<int>(inputs_.size() + devInputs_.size()));
    rows_.resize(inputs_.size());
    devRows_.resize(devInputs_.size());
    health_.resize(inputs_.size());

    if (auto* transports =
            ctx.env().get<rpc::TransportRegistry>("transports")) {
      channel_ = &transports->channel(
          rpc::kSummaryChannelNames[static_cast<int>(summaryChannel_)]);
      channel_->setTier(2);
      channel_->recordConnect();  // one upward connection per group
    }
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    // The same gate as the merge modules': black-box wants every window
    // fresh, white-box every input present.
    for (const auto* names : {&inputs_, &devInputs_}) {
      for (const auto& name : *names) {
        if (!ctx.inputHasData(name, 0)) return;
        if (blackBox_ && !ctx.inputFresh(name, 0)) return;
      }
    }
    const std::size_t dims = blackBox_ ? histogramRows(ctx) : meanRows(ctx);
    const rpc::Daemon daemon =
        blackBox_ ? rpc::Daemon::kSadc : rpc::Daemon::kHadoopLog;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      rpc::NodeHealth h = rpc::NodeHealth::kHealthy;
      if (client_ != nullptr && nodeIds_[i] != kInvalidNode) {
        h = client_->health().channelHealth(nodeIds_[i], daemon);
      }
      health_[i] = static_cast<double>(h);
    }
    analysis::reduceGroup(ctx.now(), rows_.data(),
                          blackBox_ ? nullptr : devRows_.data(),
                          health_.data(), inputs_.size(), dims, summary_,
                          scratch_);

    std::vector<double>& packed = packedBuilder_.acquire();
    summary_.pack(packed);
    if (channel_ != nullptr) {
      channel_->recordCall(rpc::kSummaryRequestBytes,
                           rpc::summaryWindowWireBytes(packed.size()));
    }
    if (board_ != nullptr) {
      board_->append(summaryChannel_, ctx.now(), packed);
    }
    ctx.write(outSummary_, packedBuilder_.share());
  }

 private:
  static const core::VecBuf& vectorInput(core::ModuleContext& ctx,
                                         const std::string& name) {
    const core::Sample& sample = ctx.input(name, 0);
    if (!core::isVector(sample.value)) {
      throw ConfigError("[" + ctx.instanceId() + "] expects vector inputs");
    }
    return core::asVector(sample.value);
  }

  // Black-box rows: each member window's StateVector histogram.
  std::size_t histogramRows(core::ModuleContext& ctx) {
    histograms_.resizeRows(inputs_.size(), numStates_);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const core::VecBuf& window = vectorInput(ctx, inputs_[i]);
      analysis::stateHistogramInto(window.data(), window.size(),
                                   histograms_.row(i), numStates_);
      rows_[i] = histograms_.row(i);
    }
    return numStates_;
  }

  // White-box rows: each member's window means, beside its stddevs.
  std::size_t meanRows(core::ModuleContext& ctx) {
    std::size_t dims = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const core::VecBuf& mean = vectorInput(ctx, inputs_[i]);
      const core::VecBuf& dev = vectorInput(ctx, devInputs_[i]);
      if (i == 0) dims = mean.size();
      if (mean.size() != dims || dev.size() != dims) {
        throw ConfigError("[" + ctx.instanceId() +
                          "] input dimension mismatch");
      }
      rows_[i] = mean.data();
      devRows_[i] = dev.data();
    }
    return dims;
  }

  const bool blackBox_;
  const rpc::SummaryChannel summaryChannel_;
  std::size_t numStates_ = 0;
  rpc::RpcClient* client_ = nullptr;
  rpc::SummaryBoard* board_ = nullptr;
  rpc::RpcChannelStats* channel_ = nullptr;
  // Reused per-window workspace: zero steady-state allocations.
  Matrix histograms_;
  std::vector<const double*> rows_;
  std::vector<const double*> devRows_;
  std::vector<double> health_;
  analysis::GroupSummary summary_;
  analysis::ReduceScratch scratch_;
  core::VecBuilder packedBuilder_;
  std::vector<std::string> inputs_;     // l<i> (black-box) or a<i>
  std::vector<std::string> devInputs_;  // d<i> (white-box only)
  std::vector<NodeId> nodeIds_;
  int outSummary_ = -1;
};

}  // namespace

void registerReduceModules(core::ModuleRegistry& registry) {
  registry.registerType("agg_bb", [] {
    return std::make_unique<ReduceModule>(PeerAnalysis::kBlackBox);
  });
  registry.registerType("agg_wb", [] {
    return std::make_unique<ReduceModule>(PeerAnalysis::kWhiteBox);
  });
}

}  // namespace asdf::modules
