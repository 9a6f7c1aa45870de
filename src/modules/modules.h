// The built-in ASDF module library.
//
// These are the module types the paper describes: the sadc and
// hadoop_log data-collection modules, the mavgvec / knn / ibuffer
// processing modules, the fingerpointers (agg_bb / agg_wb, one reduce
// class, reduce each group of nodes; analysis_bb_merge /
// analysis_wb_merge, one merge class, compare every node with the
// median of its peers; modules/merge.h), and the
// print alarm sink. registerBuiltinModules() installs them in
// a registry (static libraries would otherwise drop the registration
// objects); call it once at startup.
//
// Environment services the modules look up:
//   "rpc"         rpc::RpcHub             — sadc, hadoop_log, strace
//                                          (without "rpc_client" they
//                                          fetch through its client)
//   "bb_model"    analysis::BlackBoxModel — knn, agg_bb
//   "hl_sync"     modules::HadoopLogSync  — hadoop_log (required; one
//                                          shared by every instance)
//   "rpc_client"  rpc::RpcClient          — sadc, hadoop_log, strace
//                                          (the client they fetch
//                                          through), agg_bb, agg_wb
//                                          (optional; per-node health)
//   "node_health" rpc::NodeHealthRegistry — node_health
//   "transports"  rpc::TransportRegistry  — agg_bb, agg_wb (optional;
//                                          Table 4 accounting of the
//                                          tier-2 summary traffic)
//   "summary_board" rpc::SummaryBoard     — agg_bb, agg_wb (optional;
//                                          live aggregator processes
//                                          publish windows upward)
//   env.alarmSink                         — print
//   env.monitoringSink                    — analysis_bb_merge,
//                                          analysis_wb_merge
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/registry.h"
#include "core/value.h"

namespace asdf::modules {

/// Installs every built-in module type into the registry (the global
/// one by default). Idempotent.
void registerBuiltinModules(core::ModuleRegistry* registry = nullptr);

/// The numbered inputs <prefix>0, <prefix>1, ... of a module, up to the
/// first unbound one. Throws ConfigError unless each binds exactly one
/// output.
std::vector<std::string> numberedInputs(const core::ModuleContext& ctx,
                                        const std::string& prefix);

/// Service interface the [mitigate] module acts through (environment
/// name "mitigator"): quarantine the node identified by an analysis
/// origin label (e.g. "slave3").
class Mitigator {
 public:
  virtual ~Mitigator() = default;
  virtual void quarantine(const std::string& origin, SimTime when) = 0;
};

/// Cross-instance synchronization for the hadoop_log module
/// (Section 3.7): per-second white-box rows are released only once
/// every registered node has produced that second, so the analysis
/// always sees rows from the same time point. Incomplete seconds that
/// fall behind a completed one are dropped (and counted).
///
/// Cost: push and drain are O(1) amortized in the number of registered
/// nodes N. registerNode gives each node a dense slot, so a row is a
/// slot-indexed vector plus a filled count and completion is one
/// compare. A released row records how many registered nodes still
/// have to drain it; drain decrements that count as the node's cursor
/// passes the row and pops front rows that reach zero, so no call scans
/// the node set. Releasing, dropping or pruning a row touches its N
/// cells once, i.e. O(1) per push. Row storage is recycled: steady-state
/// push, release and prune allocate nothing, and neither does drain
/// into a reused vector. NodeIds index the slot table directly, so they
/// are expected to be small dense slave numbers.
///
/// Operations are internally locked. Note that locking alone does not
/// make release timing order-independent: which poll's push completes
/// a row decides which instances drain it this tick. The hadoop_log
/// module therefore also declares the "hl-sync" exclusivity domain so
/// the fpt-core scheduler serializes its instances in configuration
/// order under any executor, keeping release timing deterministic.
class HadoopLogSync {
 public:
  using Drained = std::vector<std::pair<long, core::VecBuf>>;

  /// Idempotent. A node registered after a release neither receives
  /// the rows released before it nor holds them back.
  void registerNode(NodeId node);

  /// Adds node's white-box vector for `second`; may release rows.
  /// Rows are immutable COW buffers, so every instance draining the
  /// same second shares one payload instead of copying it. Rows hold
  /// registered nodes only: a push by an unregistered node is ignored.
  void push(NodeId node, long second, core::VecBuf wb);

  /// Released (second, row) handles for this node that have not been
  /// drained yet, in release order. Draining hands out cheap buffer
  /// references; the payload bytes are never duplicated. An
  /// unregistered node drains nothing.
  Drained drain(NodeId node);

  /// The same, into `out` (cleared first): reusing `out` across calls
  /// drains without allocating.
  void drain(NodeId node, Drained& out);

  long droppedSeconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }
  std::size_t registeredNodes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cursor_.size();
  }

 private:
  struct Cell {
    core::VecBuf wb;
    bool set = false;
  };
  struct Row {
    long second = 0;
    std::vector<Cell> cells;  // by slot
    std::size_t filled = 0;
    std::size_t undrained = 0;  // released: registered nodes yet to drain
  };
  using RowPtr = std::unique_ptr<Row>;

  int slotOf(NodeId node) const;
  RowPtr takeRow(long second);
  void recycle(RowPtr row);

  mutable std::mutex mutex_;
  std::vector<int> slotOfNode_;  // by NodeId; -1 = unregistered
  /// Per slot: absolute index of the next released row to drain.
  std::vector<std::size_t> cursor_;
  std::vector<RowPtr> pending_;  // ascending second; few at a time
  /// Released rows not yet drained by every node. released_[i] holds
  /// absolute row index releasedBase_ + i; rows every cursor has
  /// passed are pruned so their buffers return to the producers'
  /// pools (zero steady-state allocations end to end).
  std::vector<RowPtr> released_;
  std::size_t releasedBase_ = 0;
  std::vector<RowPtr> spare_;  // recycled rows, cells empty
  long dropped_ = 0;
};

}  // namespace asdf::modules
