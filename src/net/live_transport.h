// Client side of the live collection plane: a blocking framed-TCP
// connection to one asdf_rpcd daemon, implementing rpc::LiveCollector
// so rpc::RpcClient's retry / backoff / circuit-breaker / byte-
// accounting machinery works unchanged over real sockets.
//
// One socket carries every channel for every node (asdf_rpcd serves
// the whole monitored cluster). Each collect is one request frame and
// one response frame (kCollectMessages, frame.h), bounded by a
// poll()-based deadline; a timeout or a framing error fails the
// attempt and drops the socket, and the next attempt reconnects.
// The socket machinery, the handshake and the call serialization that
// keeps collectors on a pool executor from interleaving frames live in
// FramedClient, shared with the aggregation tier's AggClient; this
// class only encodes requests and decodes responses.
#pragma once

#include <cstdint>
#include <string>

#include "net/cluster_stats.h"
#include "net/framed_client.h"
#include "rpc/live_collector.h"

namespace asdf::net {

class LiveTransport final : public rpc::LiveCollector {
 public:
  using Options = EndpointOptions;

  /// Connects and handshakes (kHello / kHelloAck). Throws NetError when
  /// the host is not an IPv4 literal, or the daemon is unreachable or
  /// speaks a different protocol version.
  explicit LiveTransport(const Options& opts);
  LiveTransport(const LiveTransport&) = delete;
  LiveTransport& operator=(const LiveTransport&) = delete;

  int slaves() const override { return client_.peer().members; }
  std::uint64_t serverSeed() const { return client_.peer().seed; }
  const std::string& serverSource() const { return client_.peer().source; }

  bool collect(const rpc::CollectRequest& req, rpc::CollectOut out,
               std::size_t& responseBytes) override;

  /// Advances the daemon's clock to `now` and fetches its cluster-side
  /// accounting (Table 3 / ground-truth fields for live harness runs).
  bool fetchStats(double now, ClusterStatsWire& out);

  /// Asks the daemon to exit (kShutdown); best-effort.
  void shutdownServer();

  /// Connections re-established after the constructor's initial one
  /// (each is a failed attempt's worth of evidence the daemon bounced).
  long reconnects() const { return client_.reconnects(); }

  /// Redials skipped because the backoff window was still open (the
  /// hot-loop protection working).
  long suppressedDials() const { return client_.suppressedDials(); }

 private:
  FramedClient client_;
};

}  // namespace asdf::net
