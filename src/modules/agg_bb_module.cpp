// [agg_bb] — the black-box reduce step of the aggregation tier
// (DESIGN.md §12).
//
// Runs next to a *group* of leaves: consumes each member's ibuffer
// window of knn state indices, builds each node's StateVector, reads
// the group's monitoring health, and publishes a GroupSummary — the
// survivor histograms plus their sorted per-component median partial —
// instead of flagging anyone. Flagging, quorum gating and
// MonitoringEvents are the root's job ([analysis_bb_merge]): a group
// is too small a population to judge deviation against.
//
// Inputs:  l0..l(G-1) — one ibuffer window per group member
// Outputs: summary — the packed GroupSummary (analysis/partials.h)
//
// Environment (both optional):
//   "transports"    rpc::TransportRegistry — Table 4 accounting of the
//                   upward summary traffic (channel bb-summary-tcp,
//                   tier 2)
//   "summary_board" rpc::SummaryBoard — live aggregator processes
//                   publish each window here for the serving loop
#include <vector>

#include "analysis/bbmodel.h"
#include "analysis/partials.h"
#include "analysis/peercompare.h"
#include "common/error.h"
#include "common/matrix.h"
#include "common/strings.h"
#include "core/module.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"
#include "rpc/summary.h"
#include "rpc/transport.h"

namespace asdf::modules {

class AggBbModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    const analysis::BlackBoxModel& model =
        ctx.env().require<analysis::BlackBoxModel>("bb_model");
    numStates_ = model.states();
    client_ = ctx.env().get<rpc::RpcClient>("rpc_client");
    board_ = ctx.env().get<rpc::SummaryBoard>("summary_board");

    for (int i = 0;; ++i) {
      const std::string name = strformat("l%d", i);
      const std::size_t width = ctx.inputWidth(name);
      if (width == 0) break;
      if (width != 1) {
        throw ConfigError("[" + ctx.instanceId() + "] input '" + name +
                          "' must bind exactly one output");
      }
      inputs_.push_back(name);
    }
    if (inputs_.empty()) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] agg_bb needs at least one node input");
    }

    std::vector<std::string> labels;
    for (const auto& name : inputs_) {
      labels.push_back(ctx.inputOrigin(name, 0));
      nodeIds_.push_back(rpc::nodeIdFromOrigin(labels.back()));
    }
    // One label per member, empty ones included: the root merge counts
    // the group's members from this origin.
    outSummary_ = ctx.addOutput("summary", join(labels, ";"));
    ctx.setInputTrigger(static_cast<int>(inputs_.size()));

    if (auto* transports =
            ctx.env().get<rpc::TransportRegistry>("transports")) {
      channel_ = &transports->channel("bb-summary-tcp");
      channel_->setTier(2);
      channel_->recordConnect();  // one upward connection per group
    }
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    for (const auto& name : inputs_) {
      if (!ctx.inputHasData(name, 0) || !ctx.inputFresh(name, 0)) return;
    }
    const std::size_t n = inputs_.size();
    histograms_.resizeRows(n, numStates_);
    for (std::size_t i = 0; i < n; ++i) {
      const core::Sample& sample = ctx.input(inputs_[i], 0);
      if (!core::isVector(sample.value)) {
        throw ConfigError("agg_bb expects array inputs");
      }
      const auto& window = core::asVector(sample.value);
      analysis::stateHistogramInto(window.data(), window.size(),
                                   histograms_.row(i), numStates_);
    }

    summary_.time = ctx.now();
    summary_.members = n;
    summary_.dims = numStates_;
    summary_.hasDev = false;
    summary_.health.assign(n, 0.0);
    summary_.rows.clearRows();
    summary_.rows.resizeRows(0, numStates_);
    rowPtrs_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      rpc::NodeHealth h = rpc::NodeHealth::kHealthy;
      if (client_ != nullptr && nodeIds_[i] != kInvalidNode) {
        h = client_->health().channelHealth(nodeIds_[i], rpc::Daemon::kSadc);
      }
      summary_.health[i] = static_cast<double>(h);
      if (h != rpc::NodeHealth::kUnmonitorable) {
        summary_.rows.push_back(histograms_.row(i), numStates_);
      }
    }
    for (std::size_t j = 0; j < summary_.rows.size(); ++j) {
      rowPtrs_.push_back(summary_.rows.row(j));
    }
    analysis::reduceMedianPartial(rowPtrs_.data(), rowPtrs_.size(),
                                  numStates_, summary_.median);
    summary_.devMedian.clear();

    std::vector<double>& packed = packedBuilder_.acquire();
    summary_.pack(packed);
    if (channel_ != nullptr) {
      channel_->recordCall(rpc::kSummaryRequestBytes,
                           rpc::summaryWindowWireBytes(packed.size()));
    }
    if (board_ != nullptr) {
      board_->append(rpc::SummaryChannel::kBlackBox, ctx.now(), packed);
    }
    ctx.write(outSummary_, packedBuilder_.share());
  }

 private:
  std::size_t numStates_ = 0;
  rpc::RpcClient* client_ = nullptr;
  rpc::SummaryBoard* board_ = nullptr;
  rpc::RpcChannelStats* channel_ = nullptr;
  // Reused per-window workspace: zero steady-state allocations.
  Matrix histograms_;
  analysis::GroupSummary summary_;
  std::vector<const double*> rowPtrs_;
  core::VecBuilder packedBuilder_;
  std::vector<std::string> inputs_;
  std::vector<NodeId> nodeIds_;
  int outSummary_ = -1;
};

void registerAggBbModule(core::ModuleRegistry& registry) {
  registry.registerType("agg_bb",
                        [] { return std::make_unique<AggBbModule>(); });
}

}  // namespace asdf::modules
