// The session exchanges every framed-protocol daemon shares
// (ShardGroup::answerSession, FramedClient::greet) and the shared
// collect-request decoding in asdf_rpcd. Contracts under test —
//
//   * asdf_rpcd and asdf_aggd both answer a hello of another protocol
//     version with kError(kVersionSkew) and then close the connection;
//   * a client greeted by a peer serving no members disconnects and
//     backs off instead of using the connection;
//   * an endpoint whose host is not an IPv4 literal is rejected where
//     it is configured, naming the host; and
//   * a truncated collect request is answered kBadRequest, and the
//     same connection then serves a valid request.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "net/agg_client.h"
#include "net/agg_server.h"
#include "net/fanout_collector.h"
#include "net/frame.h"
#include "net/rpcd_server.h"
#include "rpc/payloads.h"
#include "rpc/summary.h"
#include "rpc/wire.h"

namespace asdf::net {
namespace {

/// Blocking raw-socket peer: writes frames, reads them back.
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
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void send(MsgType type, const rpc::Encoder& payload) {
    const std::vector<std::uint8_t> bytes = encodeFrame(type, payload);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// False once the peer has closed the connection.
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

ErrorCode errorCode(const Frame& frame) {
  EXPECT_EQ(frame.type, MsgType::kError);
  rpc::Decoder dec(frame.payload);
  return static_cast<ErrorCode>(dec.getU32());
}

/// A hello of another version gets kVersionSkew, then EOF.
void expectVersionSkewThenClose(std::uint16_t port) {
  RawClient client(port);
  rpc::Encoder hello;
  hello.putU32(kProtocolVersion + 1);
  hello.putString("handshake-test");
  client.send(MsgType::kHello, hello);
  Frame reply;
  ASSERT_TRUE(client.readFrame(reply));
  EXPECT_EQ(errorCode(reply), ErrorCode::kVersionSkew);
  EXPECT_FALSE(client.readFrame(reply)) << "connection left open";
}

template <typename Server>
struct Running {
  template <typename Options>
  explicit Running(const Options& opts) : server(opts) {
    thread = std::thread([this] { server.run(); });
  }
  ~Running() {
    server.stop();
    thread.join();
  }
  Server server;
  std::thread thread;
};

TEST(Handshake, RpcdServerRejectsVersionSkew) {
  RpcdOptions opts;
  opts.slaves = 2;
  Running<RpcdServer> rpcd(opts);
  expectVersionSkewThenClose(rpcd.server.port());
}

TEST(Handshake, AggServerRejectsVersionSkew) {
  rpc::SummaryBoard board;
  AggServerOptions opts;
  opts.groupSize = 2;
  opts.board = &board;
  Running<AggServer> aggd(opts);
  expectVersionSkewThenClose(aggd.server.port());
}

// An ack announcing no members fails the hello: the client disconnects
// and charges its redial backoff, so an immediate second call is a
// suppressed dial rather than a fetch over the rejected connection.
TEST(Handshake, AggClientDropsAnAckServingNoMembers) {
  rpc::SummaryBoard board;
  AggServerOptions opts;
  opts.groupSize = 0;
  opts.board = &board;
  Running<AggServer> aggd(opts);

  AggClient::Options copts;
  copts.port = aggd.server.port();
  copts.timeoutSeconds = 5.0;
  AggClient client(copts);
  std::vector<rpc::SummaryWindow> windows;
  std::size_t bytes = 0;
  const auto bb = rpc::SummaryChannel::kBlackBox;
  EXPECT_FALSE(client.fetchSummary(bb, 0.0, windows, bytes));
  EXPECT_FALSE(client.fetchSummary(bb, 0.0, windows, bytes));
  EXPECT_EQ(client.suppressedDials(), 1);
  EXPECT_EQ(client.groupSize(), 0);
}

/// Runs `construct` and expects a NetError that names `host` as not
/// an IPv4 literal.
template <typename Construct>
void expectHostRejected(const std::string& host, Construct construct) {
  try {
    construct();
    ADD_FAILURE() << "host '" << host << "' was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + host +
                                         "' is not an IPv4 literal"),
              std::string::npos)
        << e.what();
  }
}

// An aggregator endpoint given by hostname fails where it is
// configured, not as a region that never answers.
TEST(Handshake, AggClientRejectsAHostnameEndpoint) {
  AggClient::Options copts;
  copts.host = "localhost";
  copts.port = 1;
  expectHostRejected("localhost", [&] { AggClient client(copts); });
}

TEST(Handshake, ParseEndpointRejectsAHostname) {
  std::string host;
  std::uint16_t port = 0;
  expectHostRejected("aggd.example",
                     [&] { parseEndpoint("aggd.example:4601", host, port); });
  parseEndpoint("127.0.0.1:4601", host, port);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 4601);
}

// A kFetchTt carrying only {node, now} lacks its watermark: the shared
// request decoder answers kBadRequest, and the connection stays usable.
TEST(RpcdRequest, TruncatedFetchGetsBadRequest) {
  RpcdOptions opts;
  opts.slaves = 2;
  Running<RpcdServer> rpcd(opts);
  RawClient client(rpcd.server.port());

  rpc::Encoder truncated;
  truncated.putU32(1);
  truncated.putDouble(5.0);
  client.send(MsgType::kFetchTt, truncated);
  Frame reply;
  ASSERT_TRUE(client.readFrame(reply));
  EXPECT_EQ(errorCode(reply), ErrorCode::kBadRequest);

  rpc::Encoder valid;
  rpc::encodeRequest(valid, {rpc::CollectKind::kTt, 1, 5.0, 5.0});
  client.send(MsgType::kFetchTt, valid);
  ASSERT_TRUE(client.readFrame(reply));
  EXPECT_EQ(reply.type, MsgType::kTtData);
}

}  // namespace
}  // namespace asdf::net
