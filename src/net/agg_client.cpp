#include "net/agg_client.h"

#include "common/error.h"

namespace asdf::net {

AggClient::AggClient(const Options& opts)
    : client_({opts, "asdf_aggd", "asdf-root"}) {}

bool AggClient::fetchSummary(rpc::SummaryChannel channel, double since,
                             std::vector<rpc::SummaryWindow>& out,
                             std::size_t& responseBytes) {
  rpc::Encoder req;
  req.putU32(static_cast<std::uint32_t>(channel));
  req.putDouble(since);
  Frame resp;
  if (!client_.call(MsgType::kFetchSummary, req, MsgType::kSummaryData,
                    resp)) {
    return false;
  }
  try {
    rpc::Decoder dec(resp.payload);
    const std::uint32_t count = dec.getU32();
    out.clear();
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      out.push_back(rpc::decodeSummaryWindow(dec));
    }
  } catch (const RpcError&) {
    client_.disconnect();
    return false;
  }
  responseBytes = resp.payload.size();
  return true;
}

void AggClient::shutdownServer() { client_.requestShutdown(); }

}  // namespace asdf::net
