#include "net/fanout_collector.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"
#include "net/socket.h"

namespace asdf::net {

void parseEndpoint(const std::string& endpoint, std::string& host,
                   std::uint16_t& port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    throw NetError("malformed endpoint '" + endpoint +
                   "' (expected host:port)");
  }
  host = endpoint.substr(0, colon);
  requireIpv4Host(host);
  const long p = std::atol(endpoint.c_str() + colon + 1);
  if (p < 1 || p > 65535) {
    throw NetError("malformed endpoint '" + endpoint + "' (bad port)");
  }
  port = static_cast<std::uint16_t>(p);
}

FanoutCollector::FanoutCollector(const std::vector<std::string>& endpoints,
                                 NodeId firstNode, double timeoutSeconds,
                                 std::uint64_t backoffSeed)
    : firstNode_(firstNode) {
  if (endpoints.empty()) {
    throw NetError("fanout collector needs at least one leaf endpoint");
  }
  for (const std::string& endpoint : endpoints) {
    LiveTransport::Options opts;
    parseEndpoint(endpoint, opts.host, opts.port);
    opts.timeoutSeconds = timeoutSeconds;
    opts.backoffSeed =
        backoffSeed * 0x9E3779B97F4A7C15ULL + transports_.size() + 1;
    transports_.push_back(std::make_unique<LiveTransport>(opts));
  }
}

int FanoutCollector::slaves() const {
  // The client polls every node through some leaf: the fewest any leaf
  // serves is what the region can rely on.
  int fewest = transports_[0]->slaves();
  for (const auto& t : transports_) fewest = std::min(fewest, t->slaves());
  return fewest;
}

LiveTransport& FanoutCollector::transportFor(NodeId node) {
  const std::size_t offset =
      node >= firstNode_ ? static_cast<std::size_t>(node - firstNode_) : 0;
  return *transports_[offset % transports_.size()];
}

void FanoutCollector::collect(std::span<const rpc::CollectRequest> requests,
                              std::span<rpc::CollectResult> results) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    transportFor(requests[i].node)
        .collect(requests.subspan(i, 1), results.subspan(i, 1));
  }
}

}  // namespace asdf::net
