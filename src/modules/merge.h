// The root step of ASDF's peer comparison (paper Sections 4.4-4.5,
// DESIGN.md §12): one implementation of "group summaries -> per-node
// health and survivors -> quorum gate -> merge kernel -> monitoring
// transition", shared by the [analysis_bb_merge]/[analysis_wb_merge]
// modules and the live tiered root (harness/aggregator.h). A flat
// deployment is the one-group case.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/partials.h"
#include "core/environment.h"

namespace asdf::modules {

enum class PeerAnalysis { kBlackBox, kWhiteBox };

class RootMerge {
 public:
  /// `labels` names every node in global order; `groupSizes` splits
  /// them into the contiguous groups whose summaries merge() takes.
  /// `cutoff` is the black-box L1 threshold or the white-box k.
  /// `quorum` 0 selects the majority default (N/2 + 1, at least 3).
  /// `channel` names the emitted MonitoringEvents. Throws ConfigError
  /// below 3 nodes (a median of fewer peers means nothing).
  RootMerge(std::string channel, PeerAnalysis analysis, double cutoff,
            std::vector<std::string> labels,
            std::vector<std::size_t> groupSizes, int quorum);

  /// Merges one window, one summary per group in group order, into
  /// per-node flags, scores and health codes. A malformed window (a
  /// group's member count differs from its size, dims disagree across
  /// groups, or a white-box summary lacks stddev partials) returns
  /// false and changes nothing: summaries may come off the network.
  bool merge(const analysis::GroupSummary* const* groups, SimTime time,
             std::vector<double>& flags, std::vector<double>& scores,
             std::vector<double>& health);

  /// The event the last successful merge() raised because the
  /// unmonitorable set or the quorum state changed; nullptr otherwise.
  const core::MonitoringEvent* transition() const {
    return raised_ ? &last_ : nullptr;
  }

 private:
  PeerAnalysis analysis_;
  double cutoff_;
  std::vector<std::string> labels_;
  std::vector<std::size_t> groupSizes_;
  // Reused per-window workspace: zero steady-state allocations.
  analysis::TieredScratch scratch_;
  std::vector<std::string> unmonitorable_;
  core::MonitoringEvent last_;  // transition state: the latest event
  bool raised_ = false;
};

}  // namespace asdf::modules
