// The deterministic chaos proxy (DESIGN.md §13): every toxic does what
// it says on the byte stream, failures it injects never crash the
// framed protocol machinery, and — the load-bearing contract — every
// chaos *decision* is a pure function of (seed, connection ordinal,
// direction, byte offset), so the same seed against the same traffic
// realizes the same event log.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/chaos_proxy.h"
#include "net/framed_client.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "rpc/wire.h"

namespace asdf::net {
namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw byte server behind the proxy: records everything it receives
/// and (optionally) echoes it back. One worker thread per connection.
class ByteUpstream {
 public:
  explicit ByteUpstream(bool echo) : echo_(echo) {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listenFd_, 0);
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listenFd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptThread_ = std::thread([this] { acceptLoop(); });
  }
  ~ByteUpstream() {
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    acceptThread_.join();
    for (std::thread& t : workers_) t.join();
  }

  std::uint16_t port() const { return port_; }

  std::vector<std::uint8_t> received() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return received_;
  }

 private:
  void acceptLoop() {
    for (;;) {
      const int fd = ::accept(listenFd_, nullptr, nullptr);
      if (fd < 0) return;
      workers_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        received_.insert(received_.end(), buf, buf + n);
      }
      if (echo_) {
        ssize_t off = 0;
        while (off < n) {
          const ssize_t w = ::send(fd, buf + off,
                                   static_cast<std::size_t>(n - off),
                                   MSG_NOSIGNAL);
          if (w <= 0) break;
          off += w;
        }
      }
    }
    ::close(fd);
  }

  bool echo_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptThread_;
  std::vector<std::thread> workers_;  // only accepts mutate; joined after
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> received_;
};

/// Proxy + its EventLoop on a background thread. The proxy is built
/// before the loop starts and torn down after it stops, per the
/// ChaosProxy threading contract.
class ChaosHarness {
 public:
  explicit ChaosHarness(ChaosOptions opts) : proxy_(loop_, std::move(opts)) {
    thread_ = std::thread([this] { loop_.run(); });
  }
  ~ChaosHarness() {
    loop_.stop();
    thread_.join();
  }
  ChaosProxy& proxy() { return proxy_; }

 private:
  EventLoop loop_;
  ChaosProxy proxy_;
  std::thread thread_;
};

/// Blocking raw-socket client poking the proxy from the test thread.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// True when every byte went out (the peer may reset mid-send).
  bool sendAll(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads until `n` bytes arrived or `timeoutSeconds` passed.
  std::vector<std::uint8_t> readN(std::size_t n, double timeoutSeconds) {
    std::vector<std::uint8_t> out;
    const double deadline = nowSeconds() + timeoutSeconds;
    std::uint8_t buf[4096];
    while (out.size() < n) {
      const double remaining = deadline - nowSeconds();
      if (remaining <= 0.0) break;
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(remaining * 1000) + 1);
      if (rc <= 0) continue;
      const ssize_t r =
          ::read(fd_, buf, std::min(sizeof(buf), n - out.size()));
      if (r <= 0) break;
      out.insert(out.end(), buf, buf + r);
    }
    return out;
  }

  /// True once the peer closed or reset the connection.
  bool waitForClose(double timeoutSeconds) {
    const double deadline = nowSeconds() + timeoutSeconds;
    std::uint8_t buf[256];
    for (;;) {
      const double remaining = deadline - nowSeconds();
      if (remaining <= 0.0) return false;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(remaining * 1000) + 1) <= 0) {
        continue;
      }
      const ssize_t r = ::read(fd_, buf, sizeof(buf));
      if (r == 0) return true;                   // orderly close
      if (r < 0) return errno == ECONNRESET;     // RST
    }
  }

 private:
  int fd_ = -1;
};

std::vector<std::uint8_t> patternBytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + 7) % 251);
  }
  return out;
}

/// The realized interleaving of up- and down-direction events depends
/// on socket scheduling; the *decisions* don't. Canonical order —
/// (conn, dir, offset, kind) — is what the determinism contract
/// promises to reproduce.
std::vector<ChaosEvent> canonical(std::vector<ChaosEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return std::make_tuple(a.conn, a.dir, a.offset,
                                            static_cast<int>(a.kind)) <
                            std::make_tuple(b.conn, b.dir, b.offset,
                                            static_cast<int>(b.kind));
                   });
  return events;
}

TEST(ChaosProxy, IdentityPhaseForwardsBytesUntouched) {
  ByteUpstream upstream(/*echo=*/true);
  ChaosOptions opts;
  opts.upstreamPort = upstream.port();
  ChaosHarness chaos(opts);

  RawClient client(chaos.proxy().port());
  const std::vector<std::uint8_t> data = patternBytes(4096);
  ASSERT_TRUE(client.sendAll(data));
  EXPECT_EQ(client.readN(4096, 5.0), data);

  EXPECT_EQ(chaos.proxy().corruptedBytes(), 0);
  EXPECT_EQ(chaos.proxy().resets(), 0);
  EXPECT_EQ(chaos.proxy().accepted(), 1);
  // The client can see the echoed bytes before the loop thread bumps
  // the relayed counters; poll instead of asserting instantly.
  const double deadline = nowSeconds() + 5.0;
  while ((chaos.proxy().relayedBytes(0) < 4096u ||
          chaos.proxy().relayedBytes(1) < 4096u) &&
         nowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(chaos.proxy().relayedBytes(0), 4096u);
  EXPECT_GE(chaos.proxy().relayedBytes(1), 4096u);

  const std::vector<ChaosEvent> events = chaos.proxy().events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, ChaosEvent::Kind::kPhaseEnter);
  const bool sawAccept =
      std::any_of(events.begin(), events.end(), [](const ChaosEvent& ev) {
        return ev.kind == ChaosEvent::Kind::kAccept && ev.conn == 1;
      });
  EXPECT_TRUE(sawAccept);
}

// The tentpole determinism contract: same seed + same per-connection
// byte streams -> same realized event log (canonicalized across the
// up/down scheduling race). A different seed realizes a different log.
TEST(ChaosProxy, SameSeedSameTrafficReproducesTheEventLog) {
  auto runOnce = [](std::uint64_t seed) {
    ByteUpstream upstream(/*echo=*/true);
    ChaosToxics toxics;
    toxics.corruptPerKb = 8.0;
    ChaosPhase phase;
    phase.up = toxics;
    phase.down = toxics;
    ChaosOptions opts;
    opts.upstreamPort = upstream.port();
    opts.seed = seed;
    opts.phases = {phase};

    ChaosHarness chaos(opts);
    RawClient client(chaos.proxy().port());
    const std::vector<std::uint8_t> data = patternBytes(2048);
    EXPECT_TRUE(client.sendAll(data));
    EXPECT_EQ(client.readN(2048, 5.0).size(), 2048u);
    return canonical(chaos.proxy().events());
  };

  const std::vector<ChaosEvent> first = runOnce(99);
  const std::vector<ChaosEvent> second = runOnce(99);
  EXPECT_EQ(first, second);

  long corrupts = 0;
  for (const ChaosEvent& ev : first) {
    if (ev.kind == ChaosEvent::Kind::kCorrupt) ++corrupts;
  }
  EXPECT_GT(corrupts, 0);  // ~32 expected at 8/KiB over 2 x 2 KiB

  EXPECT_NE(runOnce(100), first);
}

TEST(ChaosProxy, DescribeScheduleIsAPureFunctionOfOptions) {
  ChaosToxics toxics;
  toxics.corruptPerKb = 4.0;
  toxics.resetAfterBytes = 9000;
  ChaosPhase phase;
  phase.up = toxics;
  ChaosPhase dark = phase;
  dark.startSeconds = 2.0;
  dark.blackhole = true;
  ChaosOptions opts;
  opts.upstreamPort = 1;  // never dialed: schedule needs no traffic
  opts.seed = 1234;
  opts.phases = {phase, dark};

  EventLoop loopA, loopB;
  ChaosProxy a(loopA, opts);
  ChaosProxy b(loopB, opts);
  const std::string schedule = a.describeSchedule(3, 4096);
  EXPECT_EQ(schedule, b.describeSchedule(3, 4096));
  EXPECT_NE(schedule.find("blackhole"), std::string::npos);

  opts.seed = 1235;
  EventLoop loopC;
  ChaosProxy c(loopC, opts);
  EXPECT_NE(schedule, c.describeSchedule(3, 4096));
}

// An upstream given by hostname cannot be dialed: the proxy refuses
// it at construction, naming the host, instead of resetting every
// relay it accepts.
TEST(ChaosProxy, HostnameUpstreamIsRejectedAtConstruction) {
  ChaosOptions opts;
  opts.upstreamHost = "localhost";
  opts.upstreamPort = 1;
  EventLoop loop;
  try {
    ChaosProxy proxy(loop, opts);
    ADD_FAILURE() << "a hostname upstream was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("'localhost' is not an IPv4 literal"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(loop.watchedFds(), 0u);  // nothing left listening
}

// The corruption toxic flips exactly the scheduled bytes — one bit
// each, at the offsets the event log claims, nothing else.
TEST(ChaosProxy, CorruptionFlipsExactlyTheScheduledBytes) {
  ByteUpstream sink(/*echo=*/false);
  ChaosPhase phase;
  phase.up.corruptPerKb = 8.0;
  ChaosOptions opts;
  opts.upstreamPort = sink.port();
  opts.seed = 7;
  opts.phases = {phase};
  ChaosHarness chaos(opts);

  RawClient client(chaos.proxy().port());
  const std::vector<std::uint8_t> data = patternBytes(4096);
  ASSERT_TRUE(client.sendAll(data));

  const double deadline = nowSeconds() + 5.0;
  while (sink.received().size() < data.size() && nowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<std::uint8_t> got = sink.received();
  ASSERT_EQ(got.size(), data.size());

  std::set<std::uint64_t> corruptOffsets;
  for (const ChaosEvent& ev : chaos.proxy().events()) {
    if (ev.kind == ChaosEvent::Kind::kCorrupt) {
      EXPECT_EQ(ev.dir, 0);  // only the up direction corrupts here
      corruptOffsets.insert(ev.offset);
    }
  }
  ASSERT_FALSE(corruptOffsets.empty());
  EXPECT_EQ(chaos.proxy().corruptedBytes(),
            static_cast<long>(corruptOffsets.size()));

  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint8_t diff = got[i] ^ data[i];
    if (corruptOffsets.count(i) != 0) {
      EXPECT_EQ(__builtin_popcount(diff), 1) << "offset " << i;
    } else {
      EXPECT_EQ(diff, 0) << "offset " << i;
    }
  }
}

TEST(ChaosProxy, ResetFiresAtTheConfiguredOffset) {
  ByteUpstream sink(/*echo=*/false);
  ChaosPhase phase;
  phase.up.resetAfterBytes = 1000;
  ChaosOptions opts;
  opts.upstreamPort = sink.port();
  opts.phases = {phase};
  ChaosHarness chaos(opts);

  RawClient client(chaos.proxy().port());
  client.sendAll(patternBytes(4096));  // may fail mid-send: RST incoming
  EXPECT_TRUE(client.waitForClose(5.0));

  const double deadline = nowSeconds() + 5.0;
  while (chaos.proxy().resets() < 1 && nowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(chaos.proxy().resets(), 1);

  bool sawReset = false;
  for (const ChaosEvent& ev : chaos.proxy().events()) {
    if (ev.kind == ChaosEvent::Kind::kReset) {
      EXPECT_EQ(ev.conn, 1u);
      EXPECT_EQ(ev.dir, 0);
      EXPECT_EQ(ev.offset, 1000u);
      sawReset = true;
    }
  }
  EXPECT_TRUE(sawReset);
  // The client-side RST and the sink-side delivery ride different
  // sockets: wait for the sink's reader to drain its FIN'd bytes.
  const double sinkDeadline = nowSeconds() + 5.0;
  while (sink.received().size() < 1000u && nowSeconds() < sinkDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(sink.received().size(), 1000u);  // truncated at the boundary
}

TEST(ChaosProxy, LatencyToxicDelaysDelivery) {
  ByteUpstream upstream(/*echo=*/true);
  ChaosPhase phase;
  phase.up.latencySeconds = 0.12;
  phase.down.latencySeconds = 0.12;
  ChaosOptions opts;
  opts.upstreamPort = upstream.port();
  opts.phases = {phase};
  ChaosHarness chaos(opts);

  RawClient client(chaos.proxy().port());
  const std::vector<std::uint8_t> data = patternBytes(16);
  const double start = nowSeconds();
  ASSERT_TRUE(client.sendAll(data));
  EXPECT_EQ(client.readN(16, 5.0), data);
  EXPECT_GE(nowSeconds() - start, 0.2);  // ~0.24 s of injected latency
}

TEST(ChaosProxy, RateThrottlePacesDelivery) {
  ByteUpstream upstream(/*echo=*/true);
  ChaosPhase phase;
  phase.up.rateBytesPerSec = 2000.0;
  phase.down.rateBytesPerSec = 2000.0;
  ChaosOptions opts;
  opts.upstreamPort = upstream.port();
  opts.phases = {phase};
  ChaosHarness chaos(opts);

  RawClient client(chaos.proxy().port());
  const std::vector<std::uint8_t> data = patternBytes(2000);
  const double start = nowSeconds();
  ASSERT_TRUE(client.sendAll(data));
  // 2000 bytes at 2000 B/s with a 1500-byte burst allowance: the tail
  // 500 bytes wait ~0.25 s in each direction.
  EXPECT_EQ(client.readN(2000, 10.0), data);
  EXPECT_GE(nowSeconds() - start, 0.2);
}

TEST(ChaosProxy, PartitionWindowStallsBytesThenDeliversThem) {
  ByteUpstream upstream(/*echo=*/true);
  ChaosPhase clear;
  ChaosPhase dark;
  dark.startSeconds = 0.3;
  dark.blackhole = true;
  ChaosPhase healed;
  healed.startSeconds = 0.9;
  ChaosOptions opts;
  opts.upstreamPort = upstream.port();
  opts.phases = {clear, dark, healed};

  const double start = nowSeconds();
  ChaosHarness chaos(opts);
  RawClient client(chaos.proxy().port());

  // Phase 0: traffic flows.
  const std::vector<std::uint8_t> hello = patternBytes(8);
  ASSERT_TRUE(client.sendAll(hello));
  ASSERT_EQ(client.readN(8, 5.0), hello);

  // Deep inside the partition window nothing moves...
  std::this_thread::sleep_for(
      std::chrono::duration<double>(start + 0.45 - nowSeconds()));
  const std::vector<std::uint8_t> ping = patternBytes(4);
  ASSERT_TRUE(client.sendAll(ping));
  EXPECT_TRUE(client.readN(4, 0.2).empty());

  // ...and the stalled bytes arrive once the window ends.
  EXPECT_EQ(client.readN(4, 5.0), ping);
  EXPECT_GE(nowSeconds() - start, 0.85);

  bool sawStart = false, sawEnd = false;
  for (const ChaosEvent& ev : chaos.proxy().events()) {
    if (ev.kind == ChaosEvent::Kind::kPartitionStart) sawStart = true;
    if (ev.kind == ChaosEvent::Kind::kPartitionEnd) sawEnd = true;
  }
  EXPECT_TRUE(sawStart);
  EXPECT_TRUE(sawEnd);
}

// Corruption and slicing against the real framed protocol: corrupted
// frames fail CRC and drop connections, sliced responses exercise the
// decoder's reassembly — and nothing ever crashes; enough clean calls
// still get through.
TEST(ChaosProxy, FramedProtocolSurvivesCorruptionAndSlicing) {
  EventLoop serverLoop;
  TcpServer server(serverLoop, 0);
  server.onFrame([](TcpServer::Connection& conn, const Frame& frame) {
    rpc::Encoder out;
    out.putU32(0);
    conn.send(frame.type, out);
  });
  std::thread serverThread([&] { serverLoop.run(); });

  {
    ChaosPhase phase;
    phase.up.corruptPerKb = 4.0;
    phase.down.corruptPerKb = 4.0;
    phase.down.sliceBytes = 7;
    ChaosOptions opts;
    opts.upstreamPort = server.port();
    opts.seed = 2026;
    opts.phases = {phase};
    ChaosHarness chaos(opts);

    FramedClient::Options copts;
    copts.port = chaos.proxy().port();
    copts.timeoutSeconds = 1.0;
    copts.backoffBaseSeconds = 0.005;
    copts.backoffMaxSeconds = 0.05;
    FramedClient client(copts);

    int ok = 0;
    const rpc::Encoder empty;
    for (int i = 0; i < 80; ++i) {
      if (!client.connected() && !client.connect()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      Frame reply;
      if (client.call(MsgType::kStats, empty, MsgType::kStats, reply)) ++ok;
    }
    EXPECT_GT(ok, 0);
    EXPECT_GT(chaos.proxy().corruptedBytes(), 0);
  }

  serverLoop.stop();
  serverThread.join();
}

}  // namespace
}  // namespace asdf::net
