// Real-host metric source for asdf_rpcd (--source=proc).
//
// The paper's sadc_rpcd wraps libsadc over the node's live /proc
// counters. This source does the honest subset of that on the machine
// asdf_rpcd runs on: it samples /proc/stat, /proc/meminfo,
// /proc/loadavg and /proc/net/dev once per collect and maps the deltas
// into the standard 64-node + 18-NIC sadc vector layout (metrics it
// cannot observe stay zero). On hosts without a readable /proc, a
// seeded synthetic generator produces a plausible random-walk load
// pattern instead, so the daemon still serves data anywhere.
//
// Hadoop state-vector rows have no live counterpart on an arbitrary
// host; they are replayed from a canned per-second trace (a looping
// map/reduce/HDFS activity cycle), which keeps the white-box channel
// exercised end to end. There is no syscall tracer: the strace
// channel is not served.
//
// ProcSource is an rpc::LiveCollector, so asdf_rpcd serves it through
// the same collect() call as the sim source's RpcHub.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hadooplog/parser.h"
#include "metrics/os_model.h"
#include "rpc/live_collector.h"

namespace asdf::net {

class ProcSource final : public rpc::LiveCollector {
 public:
  /// `slaves` logical nodes are served; on a real host they all map to
  /// this machine's counters (node 1 live, the rest phase-shifted
  /// synthetic so peer comparison has peers to compare).
  ProcSource(int slaves, std::uint64_t seed);

  /// True when /proc/stat was readable at construction.
  bool liveProc() const { return liveProc_; }

  int slaves() const override { return slaves_; }

  /// kSadc: one sadc sample for `req.node` at virtual time `req.now`.
  /// kTt/kDn: the replayed TaskTracker / DataNode rows finalized up to
  /// `req.watermark` (exclusive of the trailing finalization lag, like
  /// the real parsers), each row returned once. kStrace fails.
  void collect(std::span<const rpc::CollectRequest> requests,
               std::span<rpc::CollectResult> results) override;

 private:
  struct ProcTotals {
    double cpuUser = 0, cpuNice = 0, cpuSystem = 0, cpuIdle = 0,
           cpuIowait = 0;
    double ctxt = 0, intr = 0, forks = 0;
    double rxBytes = 0, txBytes = 0, rxPkts = 0, txPkts = 0;
    bool valid = false;
  };

  ProcTotals readProcTotals() const;
  metrics::SadcSnapshot sampleLive(SimTime now);
  metrics::SadcSnapshot sampleSynthetic(NodeId node, SimTime now);

  int slaves_;
  bool liveProc_ = false;
  ProcTotals last_;
  double lastSampleTime_ = kNoTime;
  metrics::SadcSnapshot lastLive_;
  std::map<NodeId, Rng> rngs_;
  std::map<NodeId, double> walk_;  // per-node synthetic load level
  std::map<NodeId, long> ttCursor_;
  std::map<NodeId, long> dnCursor_;
};

}  // namespace asdf::net
