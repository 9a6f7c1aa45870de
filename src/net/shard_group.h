// Per-core sharded network plane (DESIGN.md §15).
//
// A ShardGroup owns N independent {EventLoop, TcpServer} pairs that
// all serve the same port. With N > 1 every shard's listener binds
// with SO_REUSEPORT and the kernel spreads incoming connections
// across them: there is one accept path and no shared one. Where
// SO_REUSEPORT fails the constructor throws NetError.
//
// Ownership rules: a connection belongs to exactly one shard for its
// whole life — its decoder, scratch frame and outbound buffer are
// plain members touched only by that shard's loop thread. The only
// cross-shard traffic is the relaxed counter reads summed here. The
// group installs one frame handler and one idle timeout on every
// shard; whatever state the handler touches (e.g. the hosted
// simulation in RpcdServer) is the handler owner's problem; see the
// state mutex there.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/tcp_server.h"

namespace asdf::net {

struct ShardGroupOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; all shards share the result
  int shards = 1;
};

class ShardGroup {
 public:
  explicit ShardGroup(const ShardGroupOptions& options);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shardCount() const { return static_cast<int>(servers_.size()); }
  std::uint16_t port() const { return servers_[0]->port(); }
  bool usingReusePort() const { return servers_.size() > 1; }

  /// Hands every frame on every shard to `handler` (TcpServer::onFrame;
  /// it runs on the shard's loop thread). Call before runOnCaller().
  void onFrame(const TcpServer::FrameHandler& handler);

  /// Reaps idle connections on every shard (TcpServer::setIdleTimeout;
  /// 0 keeps reaping off). Call before runOnCaller().
  void setIdleTimeout(double seconds);

  /// Runs shard 0's loop on the calling thread and shards 1..N-1 on
  /// spawned threads; returns — after stopping and joining everything
  /// — once stop() is called (from any thread, including a frame
  /// handler on any shard).
  void runOnCaller();

  /// Thread-safe and idempotent: stops every shard loop. Safe to call
  /// from a shard's own handler (it does not join).
  void stop();

  /// Answers the session frames every framed-protocol daemon serves
  /// the same way, and returns true for them: kHello (an exact version
  /// match gets `ack`, anything else kError(kVersionSkew) and a close)
  /// and kShutdown (kShutdownAck and a close, then `daemonName` logs
  /// its exit and the group stops). False for every other frame type,
  /// which the caller serves.
  bool answerSession(TcpServer::Connection& conn, const Frame& frame,
                     const HelloAck& ack, const char* daemonName);

  /// Counters summed across shards (relaxed; safe while running).
  long framesServed() const { return sum(&TcpServer::framesServed); }
  long connectionsRejected() const {
    return sum(&TcpServer::connectionsRejected);
  }
  long connectionsReaped() const { return sum(&TcpServer::connectionsReaped); }

 private:
  long sum(long (TcpServer::*counter)() const) const {
    long total = 0;
    for (const auto& s : servers_) total += (*s.*counter)();
    return total;
  }

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::unique_ptr<TcpServer>> servers_;
  std::vector<std::thread> threads_;  // shards 1..N-1, runOnCaller only
};

}  // namespace asdf::net
