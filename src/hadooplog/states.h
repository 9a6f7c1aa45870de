// The Hadoop state catalog for white-box analysis.
//
// Section 4.4 of the paper: each Hadoop thread of execution is
// approximated by a DFA whose states are high-level modes of
// execution; log entries are state-entrance, state-exit, or "instant"
// events; the aggregate per-second mode is a vector counting the
// simultaneously-executing instances of each state.
//
// Following SALSA (the paper's reference [15]), the TaskTracker's
// important states are Map and Reduce tasks (with the reduce's copy /
// sort / reduce phases), and the DataNode's are block reads and
// writes, with block deletion as an instant state.
#pragma once

#include <array>
#include <cstddef>

namespace asdf::hadooplog {

/// States inferred from a TaskTracker log.
enum class TtState : int {
  kMapTask = 0,
  kReduceTask,
  kReduceCopy,
  kReduceSort,
  kReduceReduce,
};
inline constexpr std::size_t kTtStateCount = 5;

/// States inferred from a DataNode log. kDeleteBlock is an instant
/// state (entrance and exit within the same instant).
enum class DnState : int {
  kReadBlock = 0,
  kWriteBlock,
  kDeleteBlock,
};
inline constexpr std::size_t kDnStateCount = 3;

const std::array<const char*, kTtStateCount>& ttStateNames();
const std::array<const char*, kDnStateCount>& dnStateNames();

/// Dimension of the combined per-node white-box vector
/// (TaskTracker states followed by DataNode states).
inline constexpr std::size_t kWhiteBoxVectorSize =
    kTtStateCount + kDnStateCount;

}  // namespace asdf::hadooplog
