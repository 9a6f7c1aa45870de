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
// Calls are serialized with an internal mutex so collectors running on
// a pool executor cannot interleave frames. The socket machinery and
// the handshake live in FramedClient, shared with the aggregation
// tier's AggClient.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "net/cluster_stats.h"
#include "net/framed_client.h"
#include "rpc/live_collector.h"

namespace asdf::net {

class LiveTransport final : public rpc::LiveCollector {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Per-attempt deadline covering connect + request + response.
    double timeoutSeconds = 5.0;
    /// Seeds the redial backoff jitter (see FramedClient::Options).
    std::uint64_t backoffSeed = 1;
  };

  /// Connects and handshakes (kHello / kHelloAck). Throws NetError when
  /// the daemon is unreachable or speaks a different protocol version.
  explicit LiveTransport(const Options& opts);
  ~LiveTransport() override;
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
  std::mutex mutex_;
  FramedClient client_;
};

}  // namespace asdf::net
