#include "net/rpcd_server.h"

#include <algorithm>

#include "common/logging.h"
#include "net/cluster_stats.h"
#include "rpc/payloads.h"

namespace asdf::net {
namespace {

hadoop::HadoopParams hadoopParamsFor(const RpcdOptions& opts) {
  hadoop::HadoopParams p;
  p.slaveCount = opts.slaves;
  return p;
}

workload::GridMixParams gridmixParamsFor(const RpcdOptions& opts) {
  workload::GridMixParams g;
  g.mixChangeTime = opts.mixChangeTime;
  return g;
}

}  // namespace

RpcdServer::RpcdServer(const RpcdOptions& opts)
    : opts_(opts),
      group_(ShardGroupOptions{opts.port, opts.shards,
                               opts.preferReusePort}) {
  if (opts_.source == "sim") {
    // Seed derivations must match harness::runExperiment exactly: that
    // is what lets a live client observe the same cluster a
    // sim-transport run simulates in-process.
    engine_ = std::make_unique<sim::SimEngine>();
    cluster_ = std::make_unique<hadoop::Cluster>(
        hadoopParamsFor(opts_), opts_.seed * 6151 + 3, *engine_);
    gridmix_ = std::make_unique<workload::GridMixGenerator>(
        *cluster_, gridmixParamsFor(opts_), opts_.seed * 7411 + 1);
    cluster_->start();
    gridmix_->start();
    hub_ = std::make_unique<rpc::RpcHub>(*cluster_, /*attachTime=*/0.0);
    injector_ = std::make_unique<faults::FaultInjector>(*cluster_,
                                                        opts_.fault);
    injector_->arm();
  } else {
    proc_ = std::make_unique<ProcSource>(opts_.slaves, opts_.seed);
  }
  for (int i = 0; i < group_.shardCount(); ++i) {
    group_.server(i).onFrame(
        [this](TcpServer::Connection& conn, const Frame& frame) {
          handleFrame(conn, frame);
        });
    if (opts_.idleTimeoutSeconds > 0.0) {
      group_.server(i).setIdleTimeout(opts_.idleTimeoutSeconds);
    }
  }
}

RpcdServer::~RpcdServer() = default;

void RpcdServer::run() { group_.runOnCaller(); }

void RpcdServer::stop() { group_.stop(); }

void RpcdServer::advanceTo(double now) {
  // Lazy advance: every event at or before `now` runs before the fetch
  // is answered — the same order an in-process run executes them in,
  // where cluster/gridmix/injector events sort before the module fetch
  // at an equal timestamp.
  if (engine_ != nullptr && now > engine_->now()) {
    engine_->runUntil(now);
  }
}

void RpcdServer::observeSample(rpc::CollectKind kind, NodeId node,
                               double now, double watermark,
                               const rpc::Encoder& enc) {
  if (opts_.observer == nullptr) return;
  rpc::CollectSample sample;
  sample.kind = kind;
  sample.node = node;
  sample.now = now;
  sample.watermark = watermark;
  sample.attempts = 1;
  sample.ok = true;
  sample.payload = enc.bytes().data();
  sample.payloadSize = enc.size();
  opts_.observer->onSample(sample);
}

ClusterStatsWire simClusterStats(hadoop::Cluster& cluster,
                                 const rpc::RpcHub& hub,
                                 SimTime faultEndedAt) {
  ClusterStatsWire stats;
  stats.simNow = cluster.engine().now();
  stats.faultEndedAt = faultEndedAt;
  stats.sadcCpuSeconds = hub.sadcCpuSeconds();
  stats.hadoopLogCpuSeconds = hub.hadoopLogCpuSeconds();
  stats.straceCpuSeconds = hub.straceCpuSeconds();
  stats.sadcMemoryBytes = static_cast<std::int64_t>(hub.sadcMemoryBytes());
  stats.hadoopLogMemoryBytes =
      static_cast<std::int64_t>(hub.hadoopLogMemoryBytes());
  stats.straceMemoryBytes =
      static_cast<std::int64_t>(hub.straceMemoryBytes());
  stats.jobsSubmitted = cluster.jobTracker().jobsSubmitted();
  stats.jobsCompleted = cluster.jobTracker().jobsCompleted();
  stats.speculativeLaunches = cluster.jobTracker().speculativeLaunches();
  for (int i = 1; i <= cluster.slaveCount(); ++i) {
    stats.tasksCompleted += cluster.taskTracker(i).completedTasks();
    stats.tasksFailed += cluster.taskTracker(i).failedTasks();
  }
  return stats;
}

ClusterStatsWire RpcdServer::snapshotStats(double now) {
  std::lock_guard<std::mutex> lock(stateMutex_);
  advanceTo(now);
  if (engine_ != nullptr) {
    return simClusterStats(*cluster_, *hub_, injector_->endedAt());
  }
  ClusterStatsWire stats;
  stats.simNow = now;
  stats.faultEndedAt = kNoTime;
  return stats;
}

void RpcdServer::handleStats(TcpServer::Connection& conn, double now) {
  rpc::Encoder enc;
  encodeClusterStats(enc, snapshotStats(now));
  conn.send(MsgType::kStatsData, enc);
}

void RpcdServer::handleFrame(TcpServer::Connection& conn,
                             const Frame& frame) {
  rpc::Decoder dec(frame.payload);
  switch (frame.type) {
    case MsgType::kHello: {
      const std::uint32_t version = dec.getU32();
      if (version != kProtocolVersion) {
        conn.sendError(ErrorCode::kVersionSkew,
                       "server speaks version " +
                           std::to_string(kProtocolVersion));
        conn.close();
        return;
      }
      rpc::Encoder enc;
      enc.putU32(kProtocolVersion);
      enc.putU32(static_cast<std::uint32_t>(opts_.slaves));
      enc.putI64(static_cast<std::int64_t>(opts_.seed));
      enc.putString(opts_.source);
      conn.send(MsgType::kHelloAck, enc);
      return;
    }
    case MsgType::kFetchSadc: {
      const NodeId node = static_cast<NodeId>(dec.getU32());
      const double now = dec.getDouble();
      if (node < 1 || node > opts_.slaves) {
        conn.sendError(ErrorCode::kUnknownNode,
                       "node " + std::to_string(node));
        return;
      }
      // The state mutex serializes shard threads through the shared
      // source and the archive observer (DESIGN.md §15): responses
      // depend only on (node, now), so which shard's request advances
      // the simulation first does not change any payload.
      rpc::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        if (engine_ != nullptr) {
          advanceTo(now);
          std::size_t bytes = 0;
          rpc::encodeSnapshot(enc, hub_->sadc(node).fetch(bytes));
        } else {
          rpc::encodeSnapshot(enc, proc_->collect(node, now));
        }
        observeSample(rpc::CollectKind::kSadc, node, now, kNoTime, enc);
      }
      conn.send(MsgType::kSadcData, enc);
      return;
    }
    case MsgType::kFetchTt:
    case MsgType::kFetchDn: {
      const bool tt = frame.type == MsgType::kFetchTt;
      const NodeId node = static_cast<NodeId>(dec.getU32());
      const double now = dec.getDouble();
      const double watermark = dec.getDouble();
      if (node < 1 || node > opts_.slaves) {
        conn.sendError(ErrorCode::kUnknownNode,
                       "node " + std::to_string(node));
        return;
      }
      std::vector<hadooplog::StateSample> rows;
      rpc::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        if (engine_ != nullptr) {
          advanceTo(now);
          std::size_t bytes = 0;
          rpc::HadoopLogDaemon& daemon = hub_->hadoopLog(node);
          if (tt) {
            daemon.fetchTt(watermark, rows, bytes);
          } else {
            daemon.fetchDn(watermark, rows, bytes);
          }
        } else {
          rows = tt ? proc_->fetchTt(node, watermark)
                    : proc_->fetchDn(node, watermark);
        }
        rpc::encodeSamples(enc, rows);
        observeSample(tt ? rpc::CollectKind::kTt : rpc::CollectKind::kDn,
                      node, now, watermark, enc);
      }
      conn.send(tt ? MsgType::kTtData : MsgType::kDnData, enc);
      return;
    }
    case MsgType::kFetchStrace: {
      const NodeId node = static_cast<NodeId>(dec.getU32());
      const double now = dec.getDouble();
      if (engine_ == nullptr) {
        conn.sendError(ErrorCode::kUnsupported,
                       "strace channel requires the sim source");
        return;
      }
      if (node < 1 || node > opts_.slaves) {
        conn.sendError(ErrorCode::kUnknownNode,
                       "node " + std::to_string(node));
        return;
      }
      rpc::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        advanceTo(now);
        std::size_t bytes = 0;
        rpc::encodeTrace(enc, hub_->strace(node).fetch(bytes));
        observeSample(rpc::CollectKind::kStrace, node, now, kNoTime, enc);
      }
      conn.send(MsgType::kStraceData, enc);
      return;
    }
    case MsgType::kStats: {
      handleStats(conn, dec.getDouble());
      return;
    }
    case MsgType::kShutdown: {
      rpc::Encoder enc;
      conn.send(MsgType::kShutdownAck, enc);
      conn.close();
      logInfo("asdf_rpcd: shutdown requested; exiting");
      group_.stop();
      return;
    }
    default:
      conn.sendError(ErrorCode::kBadRequest,
                     "unexpected message type " +
                         std::to_string(static_cast<int>(frame.type)));
      return;
  }
}

}  // namespace asdf::net
