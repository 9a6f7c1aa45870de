// The one socket layer under the live plane (DESIGN.md §15): the
// loopback listener with its accept loop, the non-blocking dial, and
// the monotonic clock every deadline and timer in src/net reads.
// TcpServer and ChaosProxy listen through it; FramedClient and
// ChaosProxy dial through it.
//
// Every socket it hands out is non-blocking, close-on-exec and
// TCP_NODELAY. Only IPv4 literals can be dialed: a hostname is
// rejected up front (requireIpv4Host) by every surface that takes an
// endpoint, so it fails naming the host instead of as an unreachable
// peer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/event_loop.h"

namespace asdf::net {

/// Seconds on the steady clock (an arbitrary epoch).
double monotonicSeconds();

/// Throws NetError naming `host` unless it is an IPv4 literal.
void requireIpv4Host(const std::string& host);

/// A listening socket on 127.0.0.1 and its accept loop on an
/// EventLoop. Every accepted connection goes to the handler, which
/// owns the fd from then on. When the process or the system runs out
/// of descriptors or socket memory (EMFILE, ENFILE, ENOBUFS, ENOMEM)
/// the listener stops being watched for a fixed 100 ms: the pending
/// connection stays queued in the kernel, and the loop sleeps instead
/// of spinning on a readiness it cannot clear.
class Listener {
 public:
  using ConnectionHandler = std::function<void(int fd)>;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()), with
  /// SO_REUSEPORT when `reusePort` so sibling listeners can bind the
  /// same port, and starts accepting. Throws NetError on failure.
  Listener(EventLoop& loop, std::uint16_t port, bool reusePort,
           ConnectionHandler onConnection);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  void watch();
  void acceptAll();

  EventLoop& loop_;
  ConnectionHandler onConnection_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  int pauseTimer_ = -1;
};

/// Starts connecting to `host`:`port` (an IPv4 literal). Returns the
/// socket, with `inProgress` set while the connect is still in flight
/// (wait for writability, then check dialError); -1 when no dial
/// could be started.
int dial(const std::string& host, std::uint16_t port, bool& inProgress);

/// The outcome of an in-flight dial once its socket is writable: 0
/// when connected, else the pending socket error.
int dialError(int fd);

}  // namespace asdf::net
