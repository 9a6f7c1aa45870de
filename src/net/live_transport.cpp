#include "net/live_transport.h"

#include "common/error.h"
#include "net/event_loop.h"
#include "rpc/payloads.h"

namespace asdf::net {

LiveTransport::LiveTransport(const Options& opts)
    : client_({opts, "asdf_rpcd", "asdf-fpt-core"}) {
  if (!client_.greet()) {
    throw NetError("asdf_rpcd unreachable at " + opts.host + ":" +
                   std::to_string(opts.port));
  }
}

bool LiveTransport::collect(const rpc::CollectRequest& req,
                            rpc::CollectOut out,
                            std::size_t& responseBytes) {
  rpc::Encoder enc;
  rpc::encodeRequest(enc, req);
  const CollectMessages& msgs = kCollectMessages[static_cast<int>(req.kind)];
  Frame resp;
  if (!client_.call(msgs.request, enc, msgs.response, resp)) return false;
  rpc::Decoder dec(resp.payload);
  if (!rpc::decodeInto(dec, out)) {
    client_.disconnect();
    return false;
  }
  responseBytes = resp.payload.size();
  return true;
}

bool LiveTransport::fetchStats(double now, ClusterStatsWire& out) {
  rpc::Encoder req;
  req.putDouble(now);
  Frame resp;
  if (!client_.call(MsgType::kStats, req, MsgType::kStatsData, resp)) {
    return false;
  }
  try {
    rpc::Decoder dec(resp.payload);
    out = decodeClusterStats(dec);
  } catch (const RpcError&) {
    client_.disconnect();
    return false;
  }
  return true;
}

void LiveTransport::shutdownServer() { client_.requestShutdown(); }

}  // namespace asdf::net
