// Per-core sharded network plane (DESIGN.md §15).
//
// A ShardGroup owns N independent {EventLoop, TcpServer} pairs that
// all serve the same port. Preferred mode: every shard's listener
// binds with SO_REUSEPORT and the kernel spreads incoming connections
// across them — no shared accept path at all. Fallback (when
// SO_REUSEPORT is unavailable, or forced for tests): only shard 0
// listens, and its accept interceptor hands raw fds round-robin to the
// other shards via EventLoop::post (which signals the target loop's
// eventfd) + TcpServer::adoptFd.
//
// Ownership rules: a connection belongs to exactly one shard for its
// whole life — its decoder, scratch frame and outbound buffer are
// plain members touched only by that shard's loop thread. The only
// cross-shard traffic is the one-time fd handoff (fallback mode) and
// the relaxed counter reads summed here. Whatever state the frame
// handler touches (e.g. the hosted simulation in RpcdServer) is the
// handler owner's problem; see the state mutex there.
#pragma once

#include <atomic>
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
  /// false forces the acceptor-handoff fallback even where
  /// SO_REUSEPORT works (exercised by tests).
  bool preferReusePort = true;
};

class ShardGroup {
 public:
  explicit ShardGroup(const ShardGroupOptions& options);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shardCount() const { return static_cast<int>(servers_.size()); }
  EventLoop& loop(int i) { return *loops_[static_cast<std::size_t>(i)]; }
  TcpServer& server(int i) {
    return *servers_[static_cast<std::size_t>(i)];
  }
  std::uint16_t port() const { return port_; }
  bool usingReusePort() const { return reusePort_; }

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
  long framesServed() const;
  long connectionsRejected() const;
  long connectionsReaped() const;
  long connectionsOverflowed() const;
  std::size_t connectionCount() const;

 private:
  void installHandoff();

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::unique_ptr<TcpServer>> servers_;
  std::vector<std::thread> threads_;  // shards 1..N-1, runOnCaller only
  std::uint16_t port_ = 0;
  bool reusePort_ = false;
  std::atomic<std::uint64_t> rr_{0};  // fallback round-robin cursor
};

}  // namespace asdf::net
