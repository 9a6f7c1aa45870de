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

void LiveTransport::collect(std::span<const rpc::CollectRequest> requests,
                            std::span<rpc::CollectResult> results) {
  std::lock_guard<std::mutex> lock(mutex_);
  frames_.clear();
  expected_.clear();
  for (const rpc::CollectRequest& req : requests) {
    payload_.clear();
    rpc::encodeRequest(payload_, req);
    const CollectMessages& msgs = kCollectMessages[static_cast<int>(req.kind)];
    encodeFrameInto(frames_, msgs.request, payload_.bytes().data(),
                    payload_.size());
    expected_.push_back(msgs.response);
  }
  responses_.resize(requests.size());
  statuses_.resize(requests.size());
  client_.callBurst(frames_, expected_, responses_, statuses_);

  bool undecodable = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    rpc::CollectResult& result = results[i];
    result.ok = false;
    if (statuses_[i] != FramedClient::CallStatus::kOk) continue;
    const std::vector<std::uint8_t>& payload = responses_[i].payload;
    rpc::Decoder dec(payload);
    if (!rpc::decodeInto(dec, result.out)) {
      undecodable = true;
      continue;
    }
    result.ok = true;
    result.responseBytes = payload.size();
  }
  // A peer that frames garbage correctly is not trusted past the burst.
  if (undecodable) client_.disconnect();
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
