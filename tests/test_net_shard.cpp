// The sharded network plane (net::ShardGroup, DESIGN.md §15): per-core
// event loops each owning their own listener and connections.
// Contracts under test —
//
//   * every shard binds the shared port with SO_REUSEPORT and serves
//     frames on it;
//   * a sharded asdf_rpcd returns byte-identical payloads to the
//     classic single-loop daemon for the same (channel, node, now); and
//   * a full live harness run against an N-shard daemon produces the
//     same alarm series as against a 1-shard daemon (the §9 contract
//     survives sharding).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "modules/modules.h"
#include "net/frame.h"
#include "net/rpcd_server.h"
#include "net/shard_group.h"
#include "rpc/wire.h"

namespace asdf::net {
namespace {

/// Minimal blocking client (same shape as test_net_loop's).
class ShardTestClient {
 public:
  explicit ShardTestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~ShardTestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  ShardTestClient(const ShardTestClient&) = delete;
  ShardTestClient& operator=(const ShardTestClient&) = delete;

  void sendAll(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  bool readFrame(Frame& out) {
    std::uint8_t chunk[4096];
    while (!decoder_.next(out)) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      if (!decoder_.feed(chunk, static_cast<std::size_t>(n))) return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// Runs a ShardGroup on background threads for a test's lifetime.
struct GroupFixture {
  explicit GroupFixture(ShardGroupOptions opts) : group(opts) {
    group.onFrame([](TcpServer::Connection& conn, const Frame& frame) {
      rpc::Encoder out;
      out.putU32(42);
      conn.send(frame.type, out);
    });
    thread = std::thread([this] { group.runOnCaller(); });
  }
  ~GroupFixture() {
    group.stop();
    if (thread.joinable()) thread.join();
  }

  ShardGroup group;
  std::thread thread;
};

TEST(ShardGroup, ReusePortModeServesEveryConnection) {
  GroupFixture fx(ShardGroupOptions{0, 3});
  ASSERT_GT(fx.group.port(), 0);
  EXPECT_EQ(fx.group.shardCount(), 3);
  EXPECT_TRUE(fx.group.usingReusePort());

  constexpr int kClients = 9;
  std::vector<std::unique_ptr<ShardTestClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<ShardTestClient>(fx.group.port()));
    clients.back()->sendAll(encodeFrame(MsgType::kStats, nullptr, 0));
    Frame reply;
    ASSERT_TRUE(clients.back()->readFrame(reply)) << "client " << i;
    EXPECT_EQ(reply.type, MsgType::kStats);
  }
  EXPECT_EQ(fx.group.framesServed(), kClients);
  EXPECT_EQ(fx.group.connectionsRejected(), 0);
}

TEST(ShardGroup, SingleShardIsTheClassicLoop) {
  GroupFixture fx(ShardGroupOptions{0, 1});
  EXPECT_EQ(fx.group.shardCount(), 1);
  EXPECT_FALSE(fx.group.usingReusePort());  // no point: one listener
  ShardTestClient client(fx.group.port());
  client.sendAll(encodeFrame(MsgType::kStats, nullptr, 0));
  Frame reply;
  ASSERT_TRUE(client.readFrame(reply));
  EXPECT_EQ(fx.group.framesServed(), 1);
}

// --- sharded asdf_rpcd ----------------------------------------------

struct RpcdFixture {
  explicit RpcdFixture(RpcdOptions opts) : server(opts) {
    thread = std::thread([this] { server.run(); });
  }
  ~RpcdFixture() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
  RpcdServer server;
  std::thread thread;
};

std::vector<std::uint8_t> fetchSadcPayload(std::uint16_t port, NodeId node,
                                           double now) {
  ShardTestClient client(port);
  rpc::Encoder enc;
  enc.putU32(static_cast<std::uint32_t>(node));
  enc.putDouble(now);
  client.sendAll(encodeFrame(MsgType::kFetchSadc, enc));
  Frame reply;
  EXPECT_TRUE(client.readFrame(reply));
  EXPECT_EQ(reply.type, MsgType::kSadcData);
  return reply.payload;
}

TEST(RpcdSharded, ResponsesMatchTheSingleLoopDaemonByteForByte) {
  RpcdOptions base;
  base.slaves = 4;
  base.seed = 77;
  RpcdOptions sharded = base;
  sharded.shards = 3;

  RpcdFixture classic(base);
  RpcdFixture wide(sharded);
  EXPECT_EQ(wide.server.shardCount(), 3);

  // Fetch the same (node, now) schedule from both daemons; payloads
  // must be byte-identical — each request carries its own virtual now
  // and the response depends only on (channel, node, now).
  for (NodeId node = 1; node <= 4; ++node) {
    for (double now : {5.0, 10.0, 15.0}) {
      EXPECT_EQ(fetchSadcPayload(classic.server.port(), node, now),
                fetchSadcPayload(wide.server.port(), node, now))
          << "node " << node << " now " << now;
    }
  }
}

// The §9 equivalence contract survives sharding: a live harness run
// against an N-shard daemon produces the same alarm series as against
// the classic single-loop daemon (and therefore, transitively, the
// same series as a sim-transport run — test_live_e2e pins that leg).
TEST(RpcdSharded, LiveAlarmsAreIdenticalBetweenOneAndNShards) {
  modules::registerBuiltinModules();

  harness::ExperimentSpec spec;
  spec.slaves = 4;
  spec.duration = 240.0;
  spec.trainDuration = 150.0;
  spec.seed = 5151;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = 3;
  spec.fault.startTime = 100.0;
  spec.pipeline.quietPrint = true;
  spec.faultTolerantRpc = true;
  spec.rpcPolicy.timeoutSeconds = 5.0;
  spec.transport = harness::TransportMode::kLive;
  spec.realtimeScale = 150.0;

  const analysis::BlackBoxModel model = harness::trainModel(spec);

  auto runAgainst = [&](int shards) {
    RpcdOptions opts;
    opts.slaves = spec.slaves;
    opts.seed = spec.seed;
    opts.fault = spec.fault;
    opts.shards = shards;
    RpcdFixture fx(opts);
    harness::ExperimentSpec liveSpec = spec;
    liveSpec.livePort = fx.server.port();
    return harness::runExperiment(liveSpec, model);
  };

  const harness::ExperimentResult one = runAgainst(1);
  const harness::ExperimentResult four = runAgainst(4);

  auto expectSeriesEqual = [](const analysis::AlarmSeries& a,
                              const analysis::AlarmSeries& b,
                              const char* which) {
    ASSERT_EQ(a.size(), b.size()) << which;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].time, b[i].time) << which << " record " << i;
      EXPECT_EQ(a[i].flags, b[i].flags) << which << " record " << i;
      EXPECT_EQ(a[i].scores, b[i].scores) << which << " record " << i;
      EXPECT_EQ(a[i].health, b[i].health) << which << " record " << i;
    }
  };
  expectSeriesEqual(one.blackBox, four.blackBox, "black-box");
  expectSeriesEqual(one.whiteBox, four.whiteBox, "white-box");
  EXPECT_EQ(one.jobsCompleted, four.jobsCompleted);
  EXPECT_EQ(one.tasksCompleted, four.tasksCompleted);
  EXPECT_EQ(one.rpcRounds, four.rpcRounds);
}

}  // namespace
}  // namespace asdf::net
