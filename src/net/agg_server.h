// asdf_aggd's serving side: re-serves one region's analysis summaries
// upward to the root over the same CRC-framed protocol the collection
// plane speaks (DESIGN.md §12).
//
// The aggregator's pipeline thread publishes GroupSummary windows into
// a rpc::SummaryBoard; this server answers kFetchSummary requests from
// the board. Runs a ShardGroup like RpcdServer (--shards=1 is the
// classic single loop). The board is internally locked, so the
// pipeline thread and any number of shard loop threads never race —
// no extra state mutex is needed here.
#pragma once

#include <cstdint>
#include <string>

#include "net/shard_group.h"
#include "rpc/summary.h"

namespace asdf::net {

struct AggServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral, see AggServer::port()
  int groupSize = 0;       // members served (reported in kHelloAck)
  std::uint64_t seed = 0;
  /// Not owned; the pipeline publishing into it must outlive run().
  const rpc::SummaryBoard* board = nullptr;
  /// Reap connections with no read/write progress for this long
  /// (--idle-timeout; 0 = never — see TcpServer::setIdleTimeout).
  double idleTimeoutSeconds = 0.0;
  /// Network-plane shards (--shards; see ShardGroup).
  int shards = 1;
};

class AggServer {
 public:
  explicit AggServer(const AggServerOptions& opts);

  std::uint16_t port() const { return group_.port(); }

  /// Serves until stop() or a kShutdown frame.
  void run();
  /// Thread-safe; makes run() return.
  void stop();

  long framesServed() const { return group_.framesServed(); }

 private:
  void handleFrame(TcpServer::Connection& conn, const Frame& frame);

  AggServerOptions opts_;
  HelloAck hello_;
  ShardGroup group_;
};

}  // namespace asdf::net
