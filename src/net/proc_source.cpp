#include "net/proc_source.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "hadooplog/states.h"
#include "metrics/catalog.h"
#include "rpc/payloads.h"

namespace asdf::net {
namespace {

// Canned per-second hadoop activity cycle replayed for the white-box
// channel in proc mode: (ttCounts[5], dnCounts[3]) repeating every
// kCycleLen seconds, phase-shifted per node.
constexpr int kCycleLen = 12;
constexpr double kTtCycle[kCycleLen][hadooplog::kTtStateCount] = {
    {2, 1, 1, 0, 0}, {2, 1, 1, 0, 0}, {3, 1, 0, 1, 0}, {3, 1, 0, 0, 1},
    {2, 2, 1, 0, 1}, {2, 2, 1, 1, 0}, {1, 2, 0, 1, 1}, {1, 1, 0, 0, 1},
    {2, 1, 1, 0, 0}, {3, 0, 0, 0, 0}, {2, 1, 1, 0, 0}, {1, 1, 0, 1, 0},
};
constexpr double kDnCycle[kCycleLen][hadooplog::kDnStateCount] = {
    {1, 1, 0}, {2, 1, 0}, {2, 0, 0}, {1, 1, 1}, {0, 2, 0}, {1, 2, 0},
    {2, 1, 0}, {1, 0, 1}, {1, 1, 0}, {0, 1, 0}, {1, 0, 0}, {2, 1, 0},
};

void replayRows(NodeId node, SimTime watermark, long& cursor,
                bool taskTracker, std::vector<hadooplog::StateSample>& out) {
  // Mirror the parsers' finalization lag: rows are final once the
  // watermark has moved 2 s past them.
  const long finalBefore = static_cast<long>(std::floor(watermark - 2.0));
  out.clear();
  for (; cursor < finalBefore; ++cursor) {
    hadooplog::StateSample s;
    s.second = cursor;
    const int slot =
        static_cast<int>((cursor + node) % kCycleLen + kCycleLen) % kCycleLen;
    if (taskTracker) {
      s.counts.assign(std::begin(kTtCycle[slot]), std::end(kTtCycle[slot]));
    } else {
      s.counts.assign(std::begin(kDnCycle[slot]), std::end(kDnCycle[slot]));
    }
    out.push_back(std::move(s));
  }
}

}  // namespace

ProcSource::ProcSource(int slaves, std::uint64_t seed) : slaves_(slaves) {
  last_ = readProcTotals();
  liveProc_ = last_.valid;
  if (!liveProc_) {
    logWarn("net: /proc not readable; serving synthetic counters");
  }
  for (NodeId node = 1; node <= slaves_; ++node) {
    rngs_.emplace(node, Rng(seed + 0x9E3779B97F4A7C15ULL *
                                       static_cast<std::uint64_t>(node)));
    walk_[node] = 20.0 + 5.0 * (node % 3);
    ttCursor_[node] = 0;
    dnCursor_[node] = 0;
  }
}

ProcSource::ProcTotals ProcSource::readProcTotals() const {
  ProcTotals t;
  {
    std::ifstream stat("/proc/stat");
    std::string line;
    while (std::getline(stat, line)) {
      std::istringstream iss(line);
      std::string key;
      iss >> key;
      if (key == "cpu") {
        iss >> t.cpuUser >> t.cpuNice >> t.cpuSystem >> t.cpuIdle >>
            t.cpuIowait;
        t.valid = true;
      } else if (key == "ctxt") {
        iss >> t.ctxt;
      } else if (key == "intr") {
        iss >> t.intr;
      } else if (key == "processes") {
        iss >> t.forks;
      }
    }
  }
  if (!t.valid) return t;
  std::ifstream dev("/proc/net/dev");
  std::string line;
  while (std::getline(dev, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = line.substr(0, colon);
    if (name.find("lo") != std::string::npos &&
        name.find("lo") + 2 >= name.size()) {
      continue;  // skip loopback
    }
    std::istringstream iss(line.substr(colon + 1));
    double rxBytes = 0, rxPkts = 0, skip = 0, txBytes = 0, txPkts = 0;
    iss >> rxBytes >> rxPkts;
    for (int i = 0; i < 6; ++i) iss >> skip;
    iss >> txBytes >> txPkts;
    t.rxBytes += rxBytes;
    t.rxPkts += rxPkts;
    t.txBytes += txBytes;
    t.txPkts += txPkts;
  }
  return t;
}

void ProcSource::collect(std::span<const rpc::CollectRequest> requests,
                         std::span<rpc::CollectResult> results) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const rpc::CollectRequest& req = requests[i];
    rpc::CollectResult& result = results[i];
    switch (req.kind) {
      case rpc::CollectKind::kSadc: {
        // Node 1 reports the real host when /proc is live; everyone
        // else is synthetic so peer comparison still has a population.
        metrics::SadcSnapshot& snap =
            *std::get<metrics::SadcSnapshot*>(result.out);
        snap = liveProc_ && req.node == 1 ? sampleLive(req.now)
                                          : sampleSynthetic(req.node, req.now);
        result.responseBytes = rpc::encodedSize(snap);
        result.ok = true;
        break;
      }
      case rpc::CollectKind::kTt:
      case rpc::CollectKind::kDn: {
        const bool tt = req.kind == rpc::CollectKind::kTt;
        auto& rows =
            *std::get<std::vector<hadooplog::StateSample>*>(result.out);
        replayRows(req.node, req.watermark,
                   tt ? ttCursor_[req.node] : dnCursor_[req.node], tt, rows);
        result.responseBytes = rpc::encodedSize(rows);
        result.ok = true;
        break;
      }
      case rpc::CollectKind::kStrace:
        break;
    }
  }
}

metrics::SadcSnapshot ProcSource::sampleLive(SimTime now) {
  const ProcTotals cur = readProcTotals();
  metrics::SadcSnapshot snap;
  snap.time = now;
  snap.node.assign(metrics::kNodeMetricCount, 0.0);
  snap.nic.assign(metrics::kNicMetricCount, 0.0);
  if (!cur.valid) return lastLive_.node.empty() ? snap : lastLive_;

  const double elapsed =
      lastSampleTime_ == kNoTime ? 1.0 : std::max(1e-3, now - lastSampleTime_);
  const double dUser = std::max(0.0, cur.cpuUser - last_.cpuUser);
  const double dNice = std::max(0.0, cur.cpuNice - last_.cpuNice);
  const double dSys = std::max(0.0, cur.cpuSystem - last_.cpuSystem);
  const double dIdle = std::max(0.0, cur.cpuIdle - last_.cpuIdle);
  const double dIowait = std::max(0.0, cur.cpuIowait - last_.cpuIowait);
  const double total = dUser + dNice + dSys + dIdle + dIowait;
  auto& n = snap.node;
  if (total > 0) {
    n[metrics::kCpuUserPct] = 100.0 * dUser / total;
    n[metrics::kCpuNicePct] = 100.0 * dNice / total;
    n[metrics::kCpuSystemPct] = 100.0 * dSys / total;
    n[metrics::kCpuIowaitPct] = 100.0 * dIowait / total;
    n[metrics::kCpuIdlePct] = 100.0 * dIdle / total;
  }
  n[metrics::kCtxSwitchPerSec] = std::max(0.0, cur.ctxt - last_.ctxt) / elapsed;
  n[metrics::kIntrPerSec] = std::max(0.0, cur.intr - last_.intr) / elapsed;
  n[metrics::kForksPerSec] = std::max(0.0, cur.forks - last_.forks) / elapsed;

  {
    std::ifstream meminfo("/proc/meminfo");
    std::string line;
    double totalKb = 0, freeKb = 0, buffersKb = 0, cachedKb = 0;
    while (std::getline(meminfo, line)) {
      std::istringstream iss(line);
      std::string key;
      double value = 0;
      iss >> key >> value;
      if (key == "MemTotal:") totalKb = value;
      else if (key == "MemFree:") freeKb = value;
      else if (key == "Buffers:") buffersKb = value;
      else if (key == "Cached:") cachedKb = value;
    }
    n[metrics::kMemFreeKb] = freeKb;
    n[metrics::kMemUsedKb] = std::max(0.0, totalKb - freeKb);
    if (totalKb > 0) {
      n[metrics::kMemUsedPct] = 100.0 * (totalKb - freeKb) / totalKb;
    }
    n[metrics::kMemBuffersKb] = buffersKb;
    n[metrics::kMemCachedKb] = cachedKb;
  }
  {
    std::ifstream loadavg("/proc/loadavg");
    double l1 = 0, l5 = 0, l15 = 0;
    std::string runnable;
    loadavg >> l1 >> l5 >> l15 >> runnable;
    n[metrics::kLoadAvg1] = l1;
    n[metrics::kLoadAvg5] = l5;
    n[metrics::kLoadAvg15] = l15;
    const auto slash = runnable.find('/');
    if (slash != std::string::npos) {
      n[metrics::kRunQueueSize] = std::atof(runnable.c_str());
      n[metrics::kProcListSize] = std::atof(runnable.c_str() + slash + 1);
    }
  }

  const double rxPktRate =
      std::max(0.0, cur.rxPkts - last_.rxPkts) / elapsed;
  const double txPktRate =
      std::max(0.0, cur.txPkts - last_.txPkts) / elapsed;
  const double rxKbRate =
      std::max(0.0, cur.rxBytes - last_.rxBytes) / elapsed / 1024.0;
  const double txKbRate =
      std::max(0.0, cur.txBytes - last_.txBytes) / elapsed / 1024.0;
  n[metrics::kNetRxPktTotalPerSec] = rxPktRate;
  n[metrics::kNetTxPktTotalPerSec] = txPktRate;
  n[metrics::kNetRxKbTotalPerSec] = rxKbRate;
  n[metrics::kNetTxKbTotalPerSec] = txKbRate;
  auto& nic = snap.nic;
  nic[metrics::kNicRxPktPerSec] = rxPktRate;
  nic[metrics::kNicTxPktPerSec] = txPktRate;
  nic[metrics::kNicRxKbPerSec] = rxKbRate;
  nic[metrics::kNicTxKbPerSec] = txKbRate;
  nic[metrics::kNicSpeedMbps] = 1000.0;
  nic[metrics::kNicUtilPct] =
      std::min(100.0, (rxKbRate + txKbRate) * 8.0 / 1024.0 / 1000.0 * 100.0);

  snap.processes.emplace_back(
      "asdf_rpcd", std::vector<double>(metrics::kProcessMetricCount, 0.0));

  last_ = cur;
  lastSampleTime_ = now;
  lastLive_ = snap;
  return snap;
}

metrics::SadcSnapshot ProcSource::sampleSynthetic(NodeId node, SimTime now) {
  Rng& rng = rngs_.at(node);
  double& level = walk_[node];
  // Mean-reverting random walk around a per-node baseline load level.
  const double baseline = 20.0 + 5.0 * (node % 3);
  level += 0.2 * (baseline - level) + rng.gaussian(0.0, 2.0);
  level = std::min(95.0, std::max(2.0, level));

  metrics::SadcSnapshot snap;
  snap.time = now;
  snap.node.assign(metrics::kNodeMetricCount, 0.0);
  snap.nic.assign(metrics::kNicMetricCount, 0.0);
  auto& n = snap.node;
  const double user = level * 0.7;
  const double sys = level * 0.2;
  const double iowait = level * 0.1;
  n[metrics::kCpuUserPct] = user;
  n[metrics::kCpuSystemPct] = sys;
  n[metrics::kCpuIowaitPct] = iowait;
  n[metrics::kCpuIdlePct] = std::max(0.0, 100.0 - user - sys - iowait);
  n[metrics::kCtxSwitchPerSec] = 800.0 + 40.0 * level + rng.gaussian(0.0, 50.0);
  n[metrics::kIntrPerSec] = 400.0 + 20.0 * level + rng.gaussian(0.0, 30.0);
  n[metrics::kForksPerSec] = std::max(0.0, 2.0 + rng.gaussian(0.0, 1.0));
  n[metrics::kMemFreeKb] = 4.0e6 - 2.0e4 * level;
  n[metrics::kMemUsedKb] = 3.5e6 + 2.0e4 * level;
  n[metrics::kMemUsedPct] =
      100.0 * n[metrics::kMemUsedKb] /
      (n[metrics::kMemUsedKb] + n[metrics::kMemFreeKb]);
  n[metrics::kMemBuffersKb] = 1.2e5;
  n[metrics::kMemCachedKb] = 9.0e5;
  n[metrics::kRunQueueSize] = std::max(0.0, level / 25.0);
  n[metrics::kProcListSize] = 140.0 + (node % 5);
  n[metrics::kLoadAvg1] = level / 25.0;
  n[metrics::kLoadAvg5] = baseline / 25.0;
  n[metrics::kLoadAvg15] = baseline / 25.0;
  const double pktRate = 200.0 + 30.0 * level + rng.gaussian(0.0, 20.0);
  const double kbRate = pktRate * 1.2;
  n[metrics::kNetRxPktTotalPerSec] = pktRate;
  n[metrics::kNetTxPktTotalPerSec] = pktRate * 0.9;
  n[metrics::kNetRxKbTotalPerSec] = kbRate;
  n[metrics::kNetTxKbTotalPerSec] = kbRate * 0.9;
  auto& nic = snap.nic;
  nic[metrics::kNicRxPktPerSec] = pktRate;
  nic[metrics::kNicTxPktPerSec] = pktRate * 0.9;
  nic[metrics::kNicRxKbPerSec] = kbRate;
  nic[metrics::kNicTxKbPerSec] = kbRate * 0.9;
  nic[metrics::kNicSpeedMbps] = 1000.0;
  nic[metrics::kNicUtilPct] =
      std::min(100.0, kbRate * 1.9 * 8.0 / 1024.0 / 1000.0 * 100.0);
  snap.processes.emplace_back(
      "TaskTracker", std::vector<double>(metrics::kProcessMetricCount, 0.0));
  snap.processes.emplace_back(
      "DataNode", std::vector<double>(metrics::kProcessMetricCount, 0.0));
  return snap;
}

}  // namespace asdf::net
