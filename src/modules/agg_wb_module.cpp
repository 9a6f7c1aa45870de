// [agg_wb] — the white-box reduce step of the aggregation tier
// (DESIGN.md §12).
//
// Consumes the group's per-node window means and standard deviations
// (from mavgvec — the statistics are computed leaf-side; see
// analysis/partials.h for why the raw window sums never travel),
// reads the group's monitoring health, and publishes a GroupSummary:
// the survivor mean rows plus sorted median partials over both the
// means and the stddevs. Flagging and quorum gating happen at the
// root ([analysis_wb_merge]).
//
// Inputs:  a0..a(G-1) — per-node window means
//          d0..d(G-1) — per-node window standard deviations
// Outputs: summary — the packed GroupSummary (analysis/partials.h)
//
// Environment (both optional): "transports" and "summary_board", as
// in [agg_bb] (channel wb-summary-tcp, tier 2).
#include <vector>

#include "analysis/partials.h"
#include "common/error.h"
#include "common/matrix.h"
#include "common/strings.h"
#include "core/module.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"
#include "rpc/summary.h"
#include "rpc/transport.h"

namespace asdf::modules {

class AggWbModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    client_ = ctx.env().get<rpc::RpcClient>("rpc_client");
    board_ = ctx.env().get<rpc::SummaryBoard>("summary_board");
    for (int i = 0;; ++i) {
      const std::string meanName = strformat("a%d", i);
      const std::string devName = strformat("d%d", i);
      const std::size_t meanWidth = ctx.inputWidth(meanName);
      const std::size_t devWidth = ctx.inputWidth(devName);
      if (meanWidth == 0 && devWidth == 0) break;
      if (meanWidth != 1 || devWidth != 1) {
        throw ConfigError("[" + ctx.instanceId() + "] inputs '" + meanName +
                          "'/'" + devName +
                          "' must each bind exactly one output");
      }
      meanInputs_.push_back(meanName);
      devInputs_.push_back(devName);
    }
    if (meanInputs_.empty()) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] agg_wb needs at least one node input");
    }

    std::vector<std::string> labels;
    for (const auto& name : meanInputs_) {
      labels.push_back(ctx.inputOrigin(name, 0));
      nodeIds_.push_back(rpc::nodeIdFromOrigin(labels.back()));
    }
    // One label per member, empty ones included: the root merge counts
    // the group's members from this origin.
    outSummary_ = ctx.addOutput("summary", join(labels, ";"));
    ctx.setInputTrigger(
        static_cast<int>(meanInputs_.size() + devInputs_.size()));

    if (auto* transports =
            ctx.env().get<rpc::TransportRegistry>("transports")) {
      channel_ = &transports->channel("wb-summary-tcp");
      channel_->setTier(2);
      channel_->recordConnect();
    }
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    for (std::size_t i = 0; i < meanInputs_.size(); ++i) {
      if (!ctx.inputHasData(meanInputs_[i], 0) ||
          !ctx.inputHasData(devInputs_[i], 0)) {
        return;
      }
    }
    const std::size_t n = meanInputs_.size();
    meanRows_.resize(n);
    devRows_.resize(n);
    std::size_t dims = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const core::Sample& m = ctx.input(meanInputs_[i], 0);
      const core::Sample& d = ctx.input(devInputs_[i], 0);
      if (!core::isVector(m.value) || !core::isVector(d.value)) {
        throw ConfigError("agg_wb expects vector inputs");
      }
      const auto& mean = core::asVector(m.value);
      const auto& dev = core::asVector(d.value);
      if (i == 0) dims = mean.size();
      if (mean.size() != dims || dev.size() != dims) {
        throw ConfigError("agg_wb input dimension mismatch");
      }
      meanRows_[i] = mean.data();
      devRows_[i] = dev.data();
    }

    summary_.time = ctx.now();
    summary_.members = n;
    summary_.dims = dims;
    summary_.hasDev = true;
    summary_.health.assign(n, 0.0);
    summary_.rows.clearRows();
    summary_.rows.resizeRows(0, dims);
    survivorMeans_.clear();
    survivorDevs_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      rpc::NodeHealth h = rpc::NodeHealth::kHealthy;
      if (client_ != nullptr && nodeIds_[i] != kInvalidNode) {
        h = client_->health().channelHealth(nodeIds_[i],
                                            rpc::Daemon::kHadoopLog);
      }
      summary_.health[i] = static_cast<double>(h);
      if (h != rpc::NodeHealth::kUnmonitorable) {
        summary_.rows.push_back(meanRows_[i], dims);
        survivorDevs_.push_back(devRows_[i]);
      }
    }
    for (std::size_t j = 0; j < summary_.rows.size(); ++j) {
      survivorMeans_.push_back(summary_.rows.row(j));
    }
    analysis::reduceMedianPartial(survivorMeans_.data(),
                                  survivorMeans_.size(), dims,
                                  summary_.median);
    analysis::reduceMedianPartial(survivorDevs_.data(), survivorDevs_.size(),
                                  dims, summary_.devMedian);

    std::vector<double>& packed = packedBuilder_.acquire();
    summary_.pack(packed);
    if (channel_ != nullptr) {
      channel_->recordCall(rpc::kSummaryRequestBytes,
                           rpc::summaryWindowWireBytes(packed.size()));
    }
    if (board_ != nullptr) {
      board_->append(rpc::SummaryChannel::kWhiteBox, ctx.now(), packed);
    }
    ctx.write(outSummary_, packedBuilder_.share());
  }

 private:
  rpc::RpcClient* client_ = nullptr;
  rpc::SummaryBoard* board_ = nullptr;
  rpc::RpcChannelStats* channel_ = nullptr;
  // Reused per-window workspace: zero steady-state allocations.
  analysis::GroupSummary summary_;
  std::vector<const double*> meanRows_;
  std::vector<const double*> devRows_;
  std::vector<const double*> survivorMeans_;
  std::vector<const double*> survivorDevs_;
  core::VecBuilder packedBuilder_;
  std::vector<std::string> meanInputs_;
  std::vector<std::string> devInputs_;
  std::vector<NodeId> nodeIds_;
  int outSummary_ = -1;
};

void registerAggWbModule(core::ModuleRegistry& registry) {
  registry.registerType("agg_wb",
                        [] { return std::make_unique<AggWbModule>(); });
}

}  // namespace asdf::modules
