// [sadc] — black-box data collection (Section 3.5).
//
// Parameters:
//   node     = <slave id, 1-based>      (required)
//   interval = <seconds between polls>  (default 1)
//
// Outputs:
//   output0  — the flattened metric vector (64 node + 18 NIC metrics)
//              fetched from the node's sadc_rpcd daemon.
//   health   — monitoring health of the fetch (rpc::NodeHealth code:
//              0 healthy, 1 degraded/retried, 2 unmonitorable).
//
// Fetches go through the "rpc_client" service, else the "rpc" hub's
// own fault-free client. A failed round (daemon crash, hang,
// partition, packet loss, open breaker) does NOT block the pipeline —
// the module re-emits the last known vector (zeros when nothing was
// ever fetched) tagged health=2, so downstream windowing keeps its
// cadence and the analysis modules can exclude the stale stream. A
// fault-free client never fails a round: the paper's infallible
// collection.
//
// A sibling batch (every sadc instance of one wavefront group) fetches
// as one: one fetch batch for the set — one pipelined burst on a live
// socket — then each member writes its outputs in order.
#include <cassert>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "core/module.h"
#include "metrics/sadc.h"
#include "modules/modules.h"
#include "rpc/daemons.h"
#include "rpc/rpc_client.h"

namespace asdf::modules {

class SadcModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    node_ = static_cast<NodeId>(ctx.intParam("node", -1));
    if (node_ < 1) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] sadc requires a 'node' parameter >= 1");
    }
    const double interval = ctx.numParam("interval", 1.0);
    // Without an "rpc_client", fetch through the hub's fault-free one.
    client_ = ctx.env().get<rpc::RpcClient>("rpc_client");
    if (client_ == nullptr) {
      client_ = &ctx.env().require<rpc::RpcHub>("rpc").client();
    }
    out_ = ctx.addOutput("output0", strformat("slave%d", node_));
    healthOut_ = ctx.addOutput("health", strformat("slave%d", node_));
    ctx.requestPeriodic(interval);
    // The daemon charges collection CPU/network to this node's
    // activity counters; collectors for one node must not interleave.
    ctx.requestExclusive(strformat("node%d", node_));
  }

  void run(core::ModuleContext& ctx, core::RunReason reason) override {
    core::Module* self = this;
    core::ModuleContext* context = &ctx;
    runBatch({&self, 1}, {&context, 1}, reason);
  }

  void runBatch(std::span<core::Module* const> members,
                std::span<core::ModuleContext* const> contexts,
                core::RunReason) override {
    requests_.clear();
    outs_.clear();
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto& member = static_cast<SadcModule&>(*members[i]);
      assert(member.client_ == client_);
      requests_.push_back({rpc::CollectKind::kSadc, member.node_,
                           contexts[i]->now(), kNoTime});
      outs_.push_back(&member.fetched_);
    }
    client_->fetchBatch<metrics::SadcSnapshot>(requests_, outs_);
    for (std::size_t i = 0; i < members.size(); ++i) {
      static_cast<SadcModule&>(*members[i]).publish(*contexts[i]);
    }
  }

 private:
  /// Writes this poll's outputs from fetched_.
  void publish(core::ModuleContext& ctx) {
    rpc::NodeHealth health = rpc::NodeHealth::kUnmonitorable;
    if (fetched_.ok) {
      metrics::flattenNodeVector(fetched_.value, lastKnown_);
      health = fetched_.retried ? rpc::NodeHealth::kDegraded
                                : rpc::NodeHealth::kHealthy;
    }
    if (lastKnown_.empty()) {
      lastKnown_.assign(metrics::kFlatNodeVectorSize, 0.0);
    }
    // Publish through a pooled buffer: the ~82-metric vector is staged
    // once and shared by every consumer instead of deep-copied per
    // tick (lastKnown_ stays private for fault-tolerant re-emission).
    std::vector<double>& out = builder_.acquire();
    out.assign(lastKnown_.begin(), lastKnown_.end());
    ctx.write(out_, builder_.share());
    ctx.write(healthOut_, core::VecBuf{static_cast<double>(health)});
  }

  NodeId node_ = kInvalidNode;
  rpc::RpcClient* client_ = nullptr;
  int out_ = -1;
  int healthOut_ = -1;
  rpc::Fetched<metrics::SadcSnapshot> fetched_;  // reused across polls
  std::vector<double> lastKnown_;
  core::VecBuilder builder_;
  // A batch's fetch requests and targets, reused while this instance
  // leads batches.
  std::vector<rpc::CollectRequest> requests_;
  std::vector<rpc::Fetched<metrics::SadcSnapshot>*> outs_;
};

void registerSadcModule(core::ModuleRegistry& registry) {
  registry.registerType("sadc",
                        [] { return std::make_unique<SadcModule>(); });
}

}  // namespace asdf::modules
