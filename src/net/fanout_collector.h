// rpc::LiveCollector over a set of leaf daemons.
//
// An aggregator (asdf_aggd) collects from the leaf asdf_rpcd daemons
// of its region. With one daemon per monitored node, node firstNode+i
// is served by endpoint i; with fewer endpoints than nodes (a shared
// daemon hosting several nodes — the in-process test topology) nodes
// wrap around the endpoint list. Either way each fetch is routed to
// exactly one LiveTransport, and the retry / breaker / accounting
// machinery above (rpc::RpcClient) is unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/live_transport.h"
#include "rpc/live_collector.h"

namespace asdf::net {

class FanoutCollector final : public rpc::LiveCollector {
 public:
  /// Connects to every "host:port" endpoint (throws NetError when one
  /// is unreachable — an aggregator cannot start without its leaves).
  /// `firstNode` is the region's first monitored node id; used for the
  /// node -> endpoint routing described above.
  /// `backoffSeed` seeds the per-transport redial backoff jitter
  /// (endpoint i gets a split of it).
  FanoutCollector(const std::vector<std::string>& endpoints,
                  NodeId firstNode, double timeoutSeconds,
                  std::uint64_t backoffSeed = 1);

  int slaves() const override;

  /// Routes each request of the batch to its leaf, one at a time.
  void collect(std::span<const rpc::CollectRequest> requests,
               std::span<rpc::CollectResult> results) override;

 private:
  LiveTransport& transportFor(NodeId node);

  NodeId firstNode_;
  std::vector<std::unique_ptr<LiveTransport>> transports_;
};

/// Splits "host:port" (throws NetError on a malformed endpoint, or
/// naming the host unless it is an IPv4 literal).
void parseEndpoint(const std::string& endpoint, std::string& host,
                   std::uint16_t& port);

}  // namespace asdf::net
