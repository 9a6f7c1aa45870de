#include "net/agg_server.h"

namespace asdf::net {

AggServer::AggServer(const AggServerOptions& opts)
    : opts_(opts),
      hello_{opts.groupSize, opts.seed, "agg"},
      group_(ShardGroupOptions{opts.port, opts.shards}) {
  group_.onFrame([this](TcpServer::Connection& conn, const Frame& frame) {
    handleFrame(conn, frame);
  });
  group_.setIdleTimeout(opts_.idleTimeoutSeconds);
}

void AggServer::run() { group_.runOnCaller(); }

void AggServer::stop() { group_.stop(); }

void AggServer::handleFrame(TcpServer::Connection& conn,
                            const Frame& frame) {
  if (group_.answerSession(conn, frame, hello_, "asdf_aggd")) return;
  if (frame.type != MsgType::kFetchSummary) {
    conn.sendError(ErrorCode::kBadRequest,
                   "unexpected message type " +
                       std::to_string(static_cast<int>(frame.type)));
    return;
  }
  rpc::Decoder dec(frame.payload);
  const std::uint32_t channel = dec.getU32();
  const double since = dec.getDouble();
  if (channel >= static_cast<std::uint32_t>(rpc::kSummaryChannelCount)) {
    conn.sendError(ErrorCode::kBadRequest,
                   "unknown summary channel " + std::to_string(channel));
    return;
  }
  std::vector<rpc::SummaryWindow> windows;
  opts_.board->fetchSince(static_cast<rpc::SummaryChannel>(channel), since,
                          windows);
  rpc::Encoder enc;
  enc.putU32(static_cast<std::uint32_t>(windows.size()));
  for (const rpc::SummaryWindow& w : windows) {
    rpc::encodeSummaryWindow(enc, w);
  }
  conn.send(MsgType::kSummaryData, enc);
}

}  // namespace asdf::net
