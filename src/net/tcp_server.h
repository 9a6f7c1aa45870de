// Framed TCP server for collection daemons.
//
// Owns a loopback listening socket on an EventLoop, accepts any number
// of connections, runs a FrameDecoder per connection and hands every
// complete frame to one handler. Writes are non-blocking with a
// per-connection outbound buffer drained on writability.
//
// Hot-path shape (DESIGN.md §15): the steady-state request/response
// cycle performs zero heap allocations — the decoder indexes frames in
// place, one reused scratch Frame carries payloads to the handler, and
// responses encode straight into the connection's outbound buffer.
// While a read batch is being dispatched the connection is *corked*:
// every response queued by the handler accumulates and leaves in one
// send() when the batch ends, so a pipelining client costs one write
// syscall per batch instead of one per frame. Uncorked single
// responses go out via sendmsg scatter-gather (stack header + payload
// iovec) without ever copying the payload next to its header.
//
// Sharding: with `reusePort` several shard servers bind the same port
// with SO_REUSEPORT and the kernel spreads accepts across them (see
// ShardGroup). The listener and its accept loop are the socket
// layer's (net/socket.h). Each shard owns its connections outright;
// no lock is ever taken on the data path. Counters are relaxed
// atomics so a ShardGroup can sum them across live shards.
//
// Robustness contract: a connection that sends malformed framing (bad
// magic, version skew, oversized length, CRC mismatch) is counted and
// dropped — a corrupt length-prefixed stream cannot be resynchronized
// — and the server keeps serving everyone else. Handler exceptions are
// converted to kError frames, not crashes. Two resource bounds guard
// against hostile or wedged peers: an optional idle timeout reaps
// connections with no read/write progress (half-open and slowloris
// clients cannot pin resources forever), and an optional per-
// connection outbound cap drops peers that stop draining their
// responses instead of buffering without bound. All socket writes use
// MSG_NOSIGNAL — a peer closing mid-write is an EPIPE, never a
// process-killing SIGPIPE.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"

namespace asdf::net {

class TcpServer {
 public:
  class Connection {
   public:
    Connection(TcpServer& server, int fd, std::uint64_t id)
        : server_(server), fd_(fd), id_(id) {}

    /// Queues one frame for delivery. Uncorked with an empty buffer:
    /// one sendmsg(header iovec + payload iovec); otherwise the frame
    /// is encoded in place onto the outbound buffer (corked frames all
    /// leave in one syscall when the read batch ends).
    void send(MsgType type, const rpc::Encoder& payload);
    void sendError(ErrorCode code, const std::string& message);
    /// Closes after the outbound buffer drains.
    void close();

    std::uint64_t id() const { return id_; }

   private:
    friend class TcpServer;
    void queueFrame(MsgType type, const std::uint8_t* payload,
                    std::size_t size);

    TcpServer& server_;
    int fd_;
    std::uint64_t id_;
    FrameDecoder decoder_;
    Frame scratch_;  // reused per-dispatch payload carrier
    std::vector<std::uint8_t> outbound_;
    std::size_t outboundHead_ = 0;  // drained prefix of outbound_
    bool corked_ = false;
    bool watchingRead_ = true;
    bool watchingWrite_ = false;
    bool closing_ = false;
    double lastActivity_ = 0.0;  // monotonic; read/write progress
  };

  /// Frame handler: called once per complete inbound frame, on the
  /// loop thread. The Frame is a reused scratch owned by the
  /// connection — copy out anything that must outlive the call.
  using FrameHandler = std::function<void(Connection&, const Frame&)>;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral; see
  /// port()), with SO_REUSEPORT when `reusePort` so sibling shard
  /// servers can bind the same port. Throws NetError on failure.
  TcpServer(EventLoop& loop, std::uint16_t port, bool reusePort = false);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  void onFrame(FrameHandler handler) { handler_ = std::move(handler); }

  /// Reaps connections with no read/write progress for `seconds`
  /// (checked at half that interval on the loop). 0 disables (the
  /// default). Call from the loop thread before or while running.
  void setIdleTimeout(double seconds);

  /// Drops any connection whose outbound buffer would exceed `bytes`
  /// (a peer that stopped reading its responses). 0 = unbounded (the
  /// default).
  void setMaxOutboundBytes(std::size_t bytes) { maxOutboundBytes_ = bytes; }

  std::uint16_t port() const { return listener_.port(); }
  std::size_t connectionCount() const {
    return connectionCount_.load(std::memory_order_relaxed);
  }
  long framesServed() const {
    return framesServed_.load(std::memory_order_relaxed);
  }
  long connectionsRejected() const {
    return connectionsRejected_.load(std::memory_order_relaxed);
  }
  long connectionsReaped() const {
    return connectionsReaped_.load(std::memory_order_relaxed);
  }
  long connectionsOverflowed() const {
    return connectionsOverflowed_.load(std::memory_order_relaxed);
  }

 private:
  void addConnection(int fd);
  void handleConnection(Connection& conn, std::uint32_t events);
  void dispatchDecoded(Connection& conn);
  void flushOutbound(Connection& conn);
  void updateWriteInterest(Connection& conn);
  void dropConnection(std::uint64_t id);
  void armReapTimer();
  void reapIdle();

  EventLoop& loop_;
  FrameHandler handler_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t nextConnId_ = 1;
  // Relaxed atomics: bumped on the loop thread, summed cross-thread by
  // ShardGroup while shards are live.
  std::atomic<std::size_t> connectionCount_{0};
  std::atomic<long> framesServed_{0};
  std::atomic<long> connectionsRejected_{0};  // malformed framing
  std::atomic<long> connectionsReaped_{0};    // idled past the timeout
  std::atomic<long> connectionsOverflowed_{0};  // over-cap outbound
  double idleTimeoutSeconds_ = 0.0;
  std::size_t maxOutboundBytes_ = 0;
  int reapTimer_ = -1;
  Listener listener_;  // last: accepts only into a fully built server
};

}  // namespace asdf::net
