#include "net/live_transport.h"

#include "common/error.h"
#include "net/event_loop.h"
#include "rpc/payloads.h"

namespace asdf::net {
namespace {

constexpr const char kGreeting[] = "asdf-fpt-core";

FramedClient::Options clientOptions(const LiveTransport::Options& opts) {
  FramedClient::Options copts;
  copts.host = opts.host;
  copts.port = opts.port;
  copts.timeoutSeconds = opts.timeoutSeconds;
  copts.peerName = "asdf_rpcd";
  copts.backoffSeed = opts.backoffSeed;
  return copts;
}

}  // namespace

LiveTransport::LiveTransport(const Options& opts)
    : client_(clientOptions(opts)) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!client_.greet(kGreeting)) {
    throw NetError("asdf_rpcd unreachable at " + opts.host + ":" +
                   std::to_string(opts.port));
  }
}

LiveTransport::~LiveTransport() {
  std::lock_guard<std::mutex> lock(mutex_);
  client_.disconnect();
}

bool LiveTransport::collect(const rpc::CollectRequest& req,
                            rpc::CollectOut out,
                            std::size_t& responseBytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!client_.greet(kGreeting)) return false;
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
  std::lock_guard<std::mutex> lock(mutex_);
  if (!client_.greet(kGreeting)) return false;
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

void LiveTransport::shutdownServer() {
  std::lock_guard<std::mutex> lock(mutex_);
  client_.requestShutdown(kGreeting);
}

}  // namespace asdf::net
