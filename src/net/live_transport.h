// Client side of the live collection plane: a blocking framed-TCP
// connection to one asdf_rpcd daemon, implementing rpc::LiveCollector
// so rpc::RpcClient's retry / backoff / circuit-breaker / byte-
// accounting machinery works unchanged over real sockets.
//
// One socket carries every channel for every node (asdf_rpcd serves
// the whole monitored cluster). Each request is one request frame and
// one response frame (kCollectMessages, frame.h). A collect batch is
// one pipelined burst: its request frames leave back to back in one
// write and the responses are matched in order against one poll()-
// based deadline (FramedClient::callBurst). A kError or an undecodable
// response fails only its own request; a timeout, a reset or a framing
// error fails every request still outstanding and drops the socket,
// and the next batch reconnects. Wire bytes per request and response
// are those of one exchange at a time.
// The socket machinery, the handshake and the call serialization that
// keeps collectors on a pool executor from interleaving frames live in
// FramedClient, shared with the aggregation tier's AggClient; this
// class only encodes requests and decodes responses.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

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

  /// One pipelined burst of the batch's requests.
  void collect(std::span<const rpc::CollectRequest> requests,
               std::span<rpc::CollectResult> results) override;

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
  // Burst scratch, reused across batches; mutex_ serializes collectors
  // on a pool executor that share the transport.
  std::mutex mutex_;
  rpc::Encoder payload_;
  std::vector<std::uint8_t> frames_;
  std::vector<MsgType> expected_;
  std::vector<Frame> responses_;
  std::vector<FramedClient::CallStatus> statuses_;
};

}  // namespace asdf::net
