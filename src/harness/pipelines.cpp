#include "harness/pipelines.h"

#include <numeric>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace asdf::harness {
namespace {

void checkTierGroups(const PipelineParams& p) {
  if (p.tierGroups.empty()) return;
  int total = 0;
  for (const int g : p.tierGroups) {
    if (g < 1) throw ConfigError("pipelines: tier group sizes must be >= 1");
    total += g;
  }
  if (total != p.slaves) {
    throw ConfigError(
        strformat("pipelines: tier groups cover %d slaves, expected %d",
                  total, p.slaves));
  }
}

// Empty tierGroups is the flat deployment: one group of every slave.
std::vector<int> groupsOf(const PipelineParams& p) {
  return p.tierGroups.empty() ? std::vector<int>{p.slaves} : p.tierGroups;
}

void appendBlackBoxCollection(std::ostringstream& out,
                              const PipelineParams& p, int firstNode,
                              int count) {
  for (int i = firstNode; i < firstNode + count; ++i) {
    out << strformat(
        "[sadc]\n"
        "id = sadc%d\n"
        "node = %d\n"
        "interval = 1\n\n",
        i, i);
    out << strformat(
        "[knn]\n"
        "id = onenn%d\n"
        "k = 1\n"
        "input[input] = sadc%d.output0\n\n",
        i, i);
    out << strformat(
        "[ibuffer]\n"
        "id = buf%d\n"
        "input[input] = onenn%d.output0\n"
        "size = %d\n"
        "slide = %d\n\n",
        i, i, p.windowSize, p.windowSlide);
  }
}

void appendAggBb(std::ostringstream& out, int group, int firstNode,
                 int count) {
  out << strformat(
      "[agg_bb]\n"
      "id = aggbb%d\n",
      group);
  for (int i = 0; i < count; ++i) {
    out << strformat("input[l%d] = buf%d.output0\n", i, firstNode + i);
  }
  out << "\n";
}

void appendBlackBox(std::ostringstream& out, const PipelineParams& p) {
  appendBlackBoxCollection(out, p, 1, p.slaves);
  const std::vector<int> groups = groupsOf(p);
  int firstNode = 1;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    appendAggBb(out, static_cast<int>(g + 1), firstNode, groups[g]);
    firstNode += groups[g];
  }
  // The merge instance keeps the id "analysis_bb" so alarm channels,
  // origins and MonitoringEvents are the same for every topology.
  out << strformat(
      "[analysis_bb_merge]\n"
      "id = analysis_bb\n"
      "threshold = %g\n"
      "quorum = %d\n",
      p.bbThreshold, p.quorum);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    out << strformat("input[s%zu] = aggbb%zu.summary\n", g, g + 1);
  }
  out << strformat(
      "\n[print]\n"
      "id = BlackBoxAlarm\n"
      "quiet = %d\n"
      "input[a] = @analysis_bb\n\n",
      p.quietPrint ? 1 : 0);
}

void appendWhiteBoxCollection(std::ostringstream& out,
                              const PipelineParams& p, int firstNode,
                              int count) {
  for (int i = firstNode; i < firstNode + count; ++i) {
    out << strformat(
        "[hadoop_log]\n"
        "id = hl%d\n"
        "node = %d\n"
        "interval = 1\n\n",
        i, i);
    out << strformat(
        "[mavgvec]\n"
        "id = mavg%d\n"
        "window = %d\n"
        "slide = %d\n"
        "input[input] = hl%d.output0\n\n",
        i, p.windowSize, p.windowSlide, i);
  }
}

void appendAggWb(std::ostringstream& out, int group, int firstNode,
                 int count) {
  out << strformat(
      "[agg_wb]\n"
      "id = aggwb%d\n",
      group);
  for (int i = 0; i < count; ++i) {
    out << strformat("input[a%d] = mavg%d.mean\n", i, firstNode + i);
    out << strformat("input[d%d] = mavg%d.stddev\n", i, firstNode + i);
  }
  out << "\n";
}

void appendWhiteBox(std::ostringstream& out, const PipelineParams& p) {
  appendWhiteBoxCollection(out, p, 1, p.slaves);
  const std::vector<int> groups = groupsOf(p);
  int firstNode = 1;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    appendAggWb(out, static_cast<int>(g + 1), firstNode, groups[g]);
    firstNode += groups[g];
  }
  out << strformat(
      "[analysis_wb_merge]\n"
      "id = analysis_wb\n"
      "k = %g\n"
      "quorum = %d\n",
      p.wbK, p.quorum);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    out << strformat("input[s%zu] = aggwb%zu.summary\n", g, g + 1);
  }
  out << strformat(
      "\n[print]\n"
      "id = WhiteBoxAlarm\n"
      "quiet = %d\n"
      "input[a] = @analysis_wb\n\n",
      p.quietPrint ? 1 : 0);
}

void appendNodeHealth(std::ostringstream& out, const PipelineParams& p) {
  if (!p.nodeHealth) return;
  out << "[node_health]\n"
         "id = node_health\n"
         "interval = 1\n\n";
  if (!p.nodeHealthCsv.empty()) {
    out << strformat(
        "[csv_sink]\n"
        "id = health_csv\n"
        "file = %s\n"
        "input[h] = node_health.health\n\n",
        p.nodeHealthCsv.c_str());
  }
}

}  // namespace

std::string buildBlackBoxConfig(const PipelineParams& params) {
  checkTierGroups(params);
  std::ostringstream out;
  out << "# ASDF black-box pipeline (generated)\n\n";
  appendBlackBox(out, params);
  return out.str();
}

std::string buildWhiteBoxConfig(const PipelineParams& params) {
  checkTierGroups(params);
  std::ostringstream out;
  out << "# ASDF white-box pipeline (generated)\n\n";
  appendWhiteBox(out, params);
  return out.str();
}

std::string buildCombinedConfig(const PipelineParams& params) {
  checkTierGroups(params);
  std::ostringstream out;
  out << "# ASDF combined black-box + white-box pipeline (generated)\n\n";
  appendBlackBox(out, params);
  appendWhiteBox(out, params);
  appendNodeHealth(out, params);
  return out.str();
}

std::string buildAggregatorConfig(const PipelineParams& params,
                                  int firstNode, int groupSize) {
  if (firstNode < 1 || groupSize < 1) {
    throw ConfigError("pipelines: aggregator group must be >= 1 node");
  }
  std::ostringstream out;
  out << "# ASDF aggregator pipeline (generated)\n\n";
  appendBlackBoxCollection(out, params, firstNode, groupSize);
  appendAggBb(out, 1, firstNode, groupSize);
  appendWhiteBoxCollection(out, params, firstNode, groupSize);
  appendAggWb(out, 1, firstNode, groupSize);
  return out.str();
}

}  // namespace asdf::harness
