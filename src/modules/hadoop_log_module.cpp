// [hadoop_log] — white-box data collection (Sections 3.7 / 4.4).
//
// Parameters:
//   node     = <slave id, 1-based>      (required)
//   interval = <seconds between polls>  (default 1)
//
// Outputs:
//   output0  — the per-second white-box state vector for the node:
//              5 TaskTracker states followed by 3 DataNode states,
//              released only at cross-node-synchronized timestamps.
//   health   — monitoring health of the poll (rpc::NodeHealth code:
//              0 healthy, 1 degraded/retried, 2 unmonitorable).
//
// Each poll asks the node's hadoop_log_rpcd for freshly finalized
// TaskTracker and DataNode state vectors, zips the two by second, and
// hands the merged row to the shared HadoopLogSync. The sync holds the
// row until every monitored node produced the same second ("the
// hadoop_log module waits for all nodes to reveal data with the same
// timestamp before updating its outputs"); rows a node never fills in
// are dropped. Each instance then writes whatever synchronized rows
// are newly available for its node — typically one per poll, one or
// two iterations behind real time, exactly like the original.
//
// Polls go through the "rpc_client" service, else the "rpc" hub's own
// fault-free client, which never fails a round, as in the paper.
//
// Degraded mode: when a fetch round fails (daemon crash, hang,
// partition, packet loss, open breaker), the module must still feed
// the sync — a silent node would hold back *every* peer's release
// forever. It synthesizes rows from the last known state halves (zeros
// when nothing was ever fetched) for the seconds the daemon should
// have finalized by now (watermark minus a small finalization lag), so
// the cross-node release cadence survives a dead collector. Real rows
// for seconds already synthesized are discarded when the daemon
// recovers.
//
// A sibling batch (every hadoop_log instance of one wavefront group)
// fetches as one: first the TaskTracker rows of every member, then the
// DataNode rows of the members whose TaskTracker fetch succeeded — one
// pipelined burst each on a live socket. Each member then ingests,
// pushes to the sync, drains and writes in configuration order, as a
// run per member would, so release timing is unchanged.
#include <cassert>
#include <map>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "core/module.h"
#include "hadooplog/states.h"
#include "modules/modules.h"
#include "rpc/daemons.h"
#include "rpc/rpc_client.h"

namespace asdf::modules {
namespace {

// Seconds behind the poll watermark that a synthesized row trails:
// matches the parsers' own finalization delay, so a recovered daemon's
// real rows resume exactly where synthesis stopped.
constexpr long kSynthesisLagSeconds = 3;

}  // namespace

class HadoopLogModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    node_ = static_cast<NodeId>(ctx.intParam("node", -1));
    if (node_ < 1) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] hadoop_log requires a 'node' parameter >= 1");
    }
    const double interval = ctx.numParam("interval", 1.0);
    // Without an "rpc_client", fetch through the hub's fault-free one.
    client_ = ctx.env().get<rpc::RpcClient>("rpc_client");
    if (client_ == nullptr) {
      client_ = &ctx.env().require<rpc::RpcHub>("rpc").client();
    }
    sync_ = &ctx.env().require<HadoopLogSync>("hl_sync");
    sync_->registerNode(node_);
    out_ = ctx.addOutput("output0", strformat("slave%d", node_));
    healthOut_ = ctx.addOutput("health", strformat("slave%d", node_));
    ctx.requestPeriodic(interval);
    // The daemon charges CPU/network to this node, and the sync's
    // release timing depends on push order across instances: serialize
    // with the node's other collectors and with all hadoop_log peers.
    ctx.requestExclusive(strformat("node%d", node_));
    ctx.requestExclusive("hl-sync");
  }

  void run(core::ModuleContext& ctx, core::RunReason reason) override {
    core::Module* self = this;
    core::ModuleContext* context = &ctx;
    runBatch({&self, 1}, {&context, 1}, reason);
  }

  void runBatch(std::span<core::Module* const> members,
                std::span<core::ModuleContext* const> contexts,
                core::RunReason) override {
    const auto member = [&members](std::size_t i) -> HadoopLogModule& {
      return static_cast<HadoopLogModule&>(*members[i]);
    };
    requests_.clear();
    outs_.clear();
    for (std::size_t i = 0; i < members.size(); ++i) {
      HadoopLogModule& m = member(i);
      assert(m.client_ == client_);
      const SimTime watermark = contexts[i]->now();
      requests_.push_back(
          {rpc::CollectKind::kTt, m.node_, watermark, watermark});
      outs_.push_back(&m.tt_);
    }
    client_->fetchBatch<std::vector<hadooplog::StateSample>>(requests_, outs_);
    requests_.clear();
    outs_.clear();
    for (std::size_t i = 0; i < members.size(); ++i) {
      HadoopLogModule& m = member(i);
      m.dn_.ok = false;
      if (!m.tt_.ok) continue;
      const SimTime watermark = contexts[i]->now();
      requests_.push_back(
          {rpc::CollectKind::kDn, m.node_, watermark, watermark});
      outs_.push_back(&m.dn_);
    }
    client_->fetchBatch<std::vector<hadooplog::StateSample>>(requests_, outs_);
    for (std::size_t i = 0; i < members.size(); ++i) {
      member(i).publish(*contexts[i]);
    }
  }

 private:
  /// Feeds this poll's fetches (or synthesized rows) to the sync and
  /// writes the node's newly released rows.
  void publish(core::ModuleContext& ctx) {
    const SimTime watermark = ctx.now();
    rpc::NodeHealth health = rpc::NodeHealth::kUnmonitorable;
    if (tt_.ok && dn_.ok) {
      ingestTt(tt_.value);
      ingestDn(dn_.value);
      health = (tt_.retried || dn_.retried) ? rpc::NodeHealth::kDegraded
                                            : rpc::NodeHealth::kHealthy;
    } else {
      synthesizeThrough(static_cast<long>(watermark) -
                        kSynthesisLagSeconds);
    }
    sync_->drain(node_, drained_);
    for (auto& [second, wb] : drained_) {
      (void)second;  // Sample time is the write time; the row order is
                     // the synchronized second order.
      ctx.write(out_, std::move(wb));
    }
    ctx.write(healthOut_, core::VecBuf{static_cast<double>(health)});
  }

  void ingestTt(std::vector<hadooplog::StateSample>& samples) {
    for (auto& s : samples) {
      lastTt_ = s.counts;
      Partial& p = partial_[s.second];
      p.tt = std::move(s.counts);  // the fetch buffer is ours
      p.hasTt = true;
      flushPartial();
    }
  }

  void ingestDn(std::vector<hadooplog::StateSample>& samples) {
    for (auto& s : samples) {
      lastDn_ = s.counts;
      Partial& p = partial_[s.second];
      p.dn = std::move(s.counts);  // the fetch buffer is ours
      p.hasDn = true;
      flushPartial();
    }
  }

  void flushPartial() {
    // Push every second for which both halves arrived.
    for (auto it = partial_.begin(); it != partial_.end();) {
      const long second = it->first;
      const Partial& p = it->second;
      if (!p.hasTt || !p.hasDn) {
        ++it;
        continue;
      }
      // Seconds already covered by synthesized rows (the daemon was
      // down when they were due) must not be pushed twice — and real
      // pushes advance the anchor so a later outage resumes synthesis
      // from the last pushed second instead of re-pushing history.
      if (!anchored_ || second > lastSynthesized_) {
        std::vector<double>& wb = rowBuilder_.acquire();
        wb.assign(p.tt.begin(), p.tt.end());
        wb.insert(wb.end(), p.dn.begin(), p.dn.end());
        sync_->push(node_, second, rowBuilder_.share());
        lastSynthesized_ = second;
        anchored_ = true;
      }
      it = partial_.erase(it);
    }
  }

  void synthesizeThrough(long uptoSecond) {
    if (uptoSecond < 0) return;
    if (!anchored_) {
      // The daemon was never reachable: synthesize forward only, from
      // the second its parsers would have been finalizing now.
      lastSynthesized_ = uptoSecond - 1;
      anchored_ = true;
    }
    if (lastTt_.empty()) lastTt_.assign(hadooplog::kTtStateCount, 0.0);
    if (lastDn_.empty()) lastDn_.assign(hadooplog::kDnStateCount, 0.0);
    for (long s = lastSynthesized_ + 1; s <= uptoSecond; ++s) {
      // Prefer any real half that arrived before the daemon died.
      const auto it = partial_.find(s);
      const Partial* p = it != partial_.end() ? &it->second : nullptr;
      const std::vector<double>& tt =
          p != nullptr && p->hasTt ? p->tt : lastTt_;
      const std::vector<double>& dn =
          p != nullptr && p->hasDn ? p->dn : lastDn_;
      std::vector<double>& wb = rowBuilder_.acquire();
      wb.assign(tt.begin(), tt.end());
      wb.insert(wb.end(), dn.begin(), dn.end());
      sync_->push(node_, s, rowBuilder_.share());
      if (p != nullptr) partial_.erase(it);
      lastSynthesized_ = s;
    }
  }

  NodeId node_ = kInvalidNode;
  rpc::RpcClient* client_ = nullptr;
  HadoopLogSync* sync_ = nullptr;
  int out_ = -1;
  int healthOut_ = -1;
  /// Highest second pushed to the sync (real or synthesized); valid
  /// only once anchored_ is set by the first push.
  bool anchored_ = false;
  long lastSynthesized_ = 0;
  /// Pooled buffers for rows handed to the sync; once every consumer
  /// of a row drops its handle the buffer returns to this pool.
  core::VecBuilder rowBuilder_;
  std::vector<double> lastTt_;
  std::vector<double> lastDn_;
  /// State halves by second, until both arrived (or were synthesized).
  struct Partial {
    std::vector<double> tt;
    std::vector<double> dn;
    bool hasTt = false;
    bool hasDn = false;
  };
  std::map<long, Partial> partial_;
  // Reused fetch and drain buffers.
  rpc::Fetched<std::vector<hadooplog::StateSample>> tt_;
  rpc::Fetched<std::vector<hadooplog::StateSample>> dn_;
  HadoopLogSync::Drained drained_;
  // A batch's fetch requests and targets, reused while this instance
  // leads batches.
  std::vector<rpc::CollectRequest> requests_;
  std::vector<rpc::Fetched<std::vector<hadooplog::StateSample>>*> outs_;
};

void registerHadoopLogModule(core::ModuleRegistry& registry) {
  registry.registerType(
      "hadoop_log", [] { return std::make_unique<HadoopLogModule>(); });
}

// ---------------------------------------------------------------------------
// HadoopLogSync

int HadoopLogSync::slotOf(NodeId node) const {
  const auto index = static_cast<std::size_t>(node);
  return node >= 0 && index < slotOfNode_.size() ? slotOfNode_[index] : -1;
}

HadoopLogSync::RowPtr HadoopLogSync::takeRow(long second) {
  RowPtr row;
  if (spare_.empty()) {
    row = std::make_unique<Row>();
  } else {
    row = std::move(spare_.back());
    spare_.pop_back();
  }
  row->second = second;
  row->cells.resize(cursor_.size());
  return row;
}

void HadoopLogSync::recycle(RowPtr row) {
  // Dropping the handles returns each buffer to its producer's pool.
  for (Cell& cell : row->cells) cell = Cell{};
  row->filled = 0;
  row->undrained = 0;
  spare_.push_back(std::move(row));
}

void HadoopLogSync::registerNode(NodeId node) {
  if (node < 0) throw ConfigError("hl_sync: negative node id");
  std::lock_guard<std::mutex> lock(mutex_);
  if (slotOf(node) >= 0) return;
  const auto index = static_cast<std::size_t>(node);
  if (index >= slotOfNode_.size()) slotOfNode_.resize(index + 1, -1);
  slotOfNode_[index] = static_cast<int>(cursor_.size());
  cursor_.push_back(releasedBase_ + released_.size());
  for (RowPtr& row : pending_) row->cells.resize(cursor_.size());
}

void HadoopLogSync::push(NodeId node, long second, core::VecBuf wb) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int slot = slotOf(node);
  if (slot < 0) return;
  // Pending seconds are few and pushes arrive mostly in order: search
  // from the newest.
  std::size_t pos = pending_.size();
  while (pos > 0 && pending_[pos - 1]->second > second) --pos;
  if (pos == 0 || pending_[pos - 1]->second != second) {
    pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(pos),
                    takeRow(second));
    ++pos;
  }
  const std::size_t index = pos - 1;
  Row& row = *pending_[index];
  Cell& cell = row.cells[static_cast<std::size_t>(slot)];
  if (!cell.set) {
    cell.set = true;
    ++row.filled;
  }
  cell.wb = std::move(wb);
  if (row.filled < cursor_.size()) return;

  // Complete: release this row and drop any older incomplete seconds —
  // they can no longer complete in order.
  for (std::size_t i = 0; i < index; ++i) {
    ++dropped_;
    recycle(std::move(pending_[i]));
  }
  row.undrained = cursor_.size();
  released_.push_back(std::move(pending_[index]));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(pos));
}

HadoopLogSync::Drained HadoopLogSync::drain(NodeId node) {
  Drained out;
  drain(node, out);
  return out;
}

void HadoopLogSync::drain(NodeId node, Drained& out) {
  out.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  const int slot = slotOf(node);
  if (slot < 0) return;
  // Every row past a registered node's cursor was released after the
  // node registered, so it holds the node's cell and counts the node.
  std::size_t& cursor = cursor_[static_cast<std::size_t>(slot)];
  const std::size_t end = releasedBase_ + released_.size();
  for (; cursor < end; ++cursor) {
    Row& row = *released_[cursor - releasedBase_];
    out.emplace_back(row.second, row.cells[static_cast<std::size_t>(slot)].wb);
    --row.undrained;
  }
  // Prune the front rows every registered node has drained.
  std::size_t done = 0;
  while (done < released_.size() && released_[done]->undrained == 0) {
    recycle(std::move(released_[done]));
    ++done;
  }
  released_.erase(released_.begin(),
                  released_.begin() + static_cast<std::ptrdiff_t>(done));
  releasedBase_ += done;
}

}  // namespace asdf::modules
