#include "net/rpcd_server.h"

#include "rpc/payloads.h"

namespace asdf::net {

RpcdServer::RpcdServer(const RpcdOptions& opts)
    : opts_(opts),
      hello_{opts.slaves, opts.seed, opts.source},
      group_(ShardGroupOptions{opts.port, opts.shards}) {
  if (opts_.source == "sim") {
    sim_ = std::make_unique<SimCluster>(engine_, opts_.slaves, opts_.seed,
                                        opts_.fault, opts_.mixChangeTime);
    // Which nodes remote pollers trace is not known up front: every
    // node draws its trace every second, as for an in-process strace
    // module attached at configure time.
    for (NodeId node = 1; node <= sim_->hub.slaves(); ++node) {
      sim_->hub.strace(node).attachConsumer();
    }
    sim_->injector.arm();
    source_ = &sim_->hub;
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
  if (sim_ != nullptr && now > engine_.now()) engine_.runUntil(now);
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

ClusterStatsWire RpcdServer::snapshotStats(double now) {
  std::lock_guard<std::mutex> lock(stateMutex_);
  advanceTo(now);
  if (sim_ != nullptr) return sim_->stats();
  return {.simNow = now, .faultEndedAt = kNoTime};
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
      rpc::Encoder enc;
      encodeClusterStats(enc, snapshotStats(dec.getDouble()));
      conn.send(MsgType::kStatsData, enc);
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
  if (!rpc::collectOne(*source_, req, out, bytes)) {
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
