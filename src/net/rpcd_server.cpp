#include "net/rpcd_server.h"

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
      hello_{opts.slaves, opts.seed, opts.source},
      group_(ShardGroupOptions{opts.port, opts.shards}) {
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
    // Which nodes remote pollers trace is not known up front: every
    // node draws its trace every second, as for an in-process strace
    // module attached at configure time.
    for (NodeId node = 1; node <= hub_->slaves(); ++node) {
      hub_->strace(node).attachConsumer();
    }
    injector_ = std::make_unique<faults::FaultInjector>(*cluster_,
                                                        opts_.fault);
    injector_->arm();
    source_ = hub_.get();
  } else {
    proc_ = std::make_unique<ProcSource>(opts_.slaves, opts_.seed);
    source_ = proc_.get();
  }
  group_.onFrame([this](TcpServer::Connection& conn, const Frame& frame) {
    handleFrame(conn, frame);
  });
  group_.setIdleTimeout(opts_.idleTimeoutSeconds);
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

void RpcdServer::observeSample(const rpc::CollectRequest& req) {
  if (opts_.observer == nullptr) return;
  rpc::CollectSample sample;
  sample.kind = req.kind;
  sample.node = req.node;
  sample.now = req.now;
  sample.watermark = req.watermark;
  sample.attempts = 1;
  sample.ok = true;
  sample.payload = payload_.bytes().data();
  sample.payloadSize = payload_.size();
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
  if (group_.answerSession(conn, frame, hello_, "asdf_rpcd")) return;
  switch (frame.type) {
    case MsgType::kFetchSadc:
    case MsgType::kFetchTt:
    case MsgType::kFetchDn:
    case MsgType::kFetchStrace:
      handleCollect(conn, frame);
      return;
    case MsgType::kStats: {
      rpc::Decoder dec(frame.payload);
      handleStats(conn, dec.getDouble());
      return;
    }
    default:
      conn.sendError(ErrorCode::kBadRequest,
                     "unexpected message type " +
                         std::to_string(static_cast<int>(frame.type)));
      return;
  }
}

void RpcdServer::handleCollect(TcpServer::Connection& conn,
                               const Frame& frame) {
  int k = 0;
  while (kCollectMessages[k].request != frame.type) ++k;
  const auto kind = static_cast<rpc::CollectKind>(k);
  rpc::Decoder dec(frame.payload);
  rpc::CollectRequest req;
  if (!rpc::decodeRequest(dec, kind, req)) {
    conn.sendError(ErrorCode::kBadRequest, std::string("truncated ") +
                                               rpc::collectKindName(kind) +
                                               " request");
    return;
  }
  if (req.node < 1 || req.node > opts_.slaves) {
    conn.sendError(ErrorCode::kUnknownNode,
                   "node " + std::to_string(req.node));
    return;
  }
  // The state mutex serializes shard threads through the shared
  // source, the archive observer and the reused response buffers
  // (DESIGN.md §15): responses depend only on (channel, node, now,
  // watermark), so which shard's request advances the simulation
  // first does not change any payload.
  std::lock_guard<std::mutex> lock(stateMutex_);
  advanceTo(req.now);
  const rpc::CollectOut out = kind == rpc::CollectKind::kSadc
                                  ? rpc::CollectOut{&snap_}
                              : kind == rpc::CollectKind::kStrace
                                  ? rpc::CollectOut{&trace_}
                                  : rpc::CollectOut{&rows_};
  std::size_t bytes = 0;
  if (!source_->collect(req, out, bytes)) {
    conn.sendError(ErrorCode::kUnsupported,
                   std::string(rpc::collectKindName(kind)) +
                       " channel requires the sim source");
    return;
  }
  payload_.clear();
  rpc::encodePayload(payload_, out);
  observeSample(req);
  conn.send(kCollectMessages[k].response, payload_);
}

}  // namespace asdf::net
