// Root side of the aggregation tier: a blocking framed-TCP connection
// to one asdf_aggd, fetching published GroupSummary windows
// (DESIGN.md §12). Built on the same FramedClient machinery as
// LiveTransport; connects lazily so the root can start before its
// aggregators and survive one dying mid-run (fetches just fail until
// the peer is back — the tiered harness turns a failure streak into
// an all-unmonitorable group).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/framed_client.h"
#include "rpc/summary.h"

namespace asdf::net {

class AggClient {
 public:
  using Options = EndpointOptions;

  /// Connects lazily; throws NetError only when the host is not an
  /// IPv4 literal.
  explicit AggClient(const Options& opts);
  AggClient(const AggClient&) = delete;
  AggClient& operator=(const AggClient&) = delete;

  /// Members the aggregator serves (0 until the first handshake).
  int groupSize() const { return client_.peer().members; }
  std::uint64_t serverSeed() const { return client_.peer().seed; }

  /// One attempt: every window with time > since, in publication
  /// order. On success sets `responseBytes` to the marshalled response
  /// payload size (tier-2 Table 4 accounting). False on connection
  /// failure, timeout, or a malformed response.
  bool fetchSummary(rpc::SummaryChannel channel, double since,
                    std::vector<rpc::SummaryWindow>& out,
                    std::size_t& responseBytes);

  /// Asks the aggregator to exit (kShutdown); best-effort.
  void shutdownServer();

  long reconnects() const { return client_.reconnects(); }

  /// Redials skipped because the backoff window was still open.
  long suppressedDials() const { return client_.suppressedDials(); }

 private:
  FramedClient client_;
};

}  // namespace asdf::net
