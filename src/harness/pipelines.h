// fpt-core configuration builders for the Hadoop deployment.
//
// The harness does not wire modules programmatically: it emits the
// same kind of configuration text a system administrator would write
// (Figures 3 and 4 of the paper) and feeds it through the real parser
// and DAG builder, so every experiment also exercises the
// configuration path end to end.
#pragma once

#include <string>
#include <vector>

namespace asdf::harness {

struct PipelineParams {
  int slaves = 16;
  int windowSize = 60;   // samples per analysis window
  int windowSlide = 5;   // samples between windows
  double bbThreshold = 60.0;
  double wbK = 3.0;
  bool quietPrint = true;
  /// Minimum surviving (monitorable) peers for analysis alarms to be
  /// valid; 0 = the modules' majority default (N/2 + 1, at least 3).
  int quorum = 0;
  /// Emit a [node_health] section (requires the harness to provide the
  /// "node_health" registry service), optionally recorded to CSV.
  bool nodeHealth = false;
  std::string nodeHealthCsv;  // empty = no csv_sink section
  /// Aggregation-tier topology (DESIGN.md §12): group sizes covering
  /// the slaves in ascending contiguous ranges; sizes must sum to
  /// `slaves`. Empty = flat analysis, which is one group of every
  /// slave. Each group gets one agg_bb/agg_wb reduce instance; the
  /// analysis_bb_merge/analysis_wb_merge instances (ids "analysis_bb"
  /// and "analysis_wb") merge the groups' summaries, so alarm channels,
  /// origins and MonitoringEvents are the same for every topology.
  std::vector<int> tierGroups;
};

/// Black-box pipeline: per slave sadc -> knn -> ibuffer, one agg_bb
/// per tier group, then one analysis_bb_merge across all slaves
/// feeding a print sink named "BlackBoxAlarm".
std::string buildBlackBoxConfig(const PipelineParams& params);

/// White-box pipeline: per slave hadoop_log -> mavgvec, one agg_wb
/// per tier group, then one analysis_wb_merge across all slaves
/// feeding "WhiteBoxAlarm".
std::string buildWhiteBoxConfig(const PipelineParams& params);

/// Both pipelines in one DAG (the deployment of Figure 4, which runs
/// black-box and white-box analyses in parallel).
std::string buildCombinedConfig(const PipelineParams& params);

/// One live aggregator's pipeline: the collection and reduce stages
/// for slaves [firstNode, firstNode + groupSize) only — per-slave
/// sadc -> knn -> ibuffer feeding one agg_bb, and hadoop_log ->
/// mavgvec feeding one agg_wb. No merge, no print: the summaries are
/// published through the "summary_board" environment service and
/// served upward by the aggregator daemon (DESIGN.md §12).
std::string buildAggregatorConfig(const PipelineParams& params,
                                  int firstNode, int groupSize);

}  // namespace asdf::harness
