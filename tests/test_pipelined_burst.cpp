// Pipelined collection bursts on the live plane: FramedClient::callBurst
// sends a batch's request frames back to back and matches responses in
// order against one deadline, and LiveTransport carries a collect batch
// as one burst. The contracts:
//
//   * responses come back in request order, equal to one-at-a-time
//     exchanges with an identical daemon;
//   * a kError fails only its own request;
//   * a dropped connection fails every request still outstanding, and
//     the next call redials;
//   * a burst larger than the socket buffers, against a peer that stops
//     reading while its own send is blocked, still completes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/framed_client.h"
#include "net/live_transport.h"
#include "net/rpcd_server.h"
#include "rpc/payloads.h"

namespace asdf::net {
namespace {

using CallStatus = FramedClient::CallStatus;

struct ServerFixture {
  explicit ServerFixture(RpcdOptions opts) : server(opts) {
    thread = std::thread([this] { server.run(); });
  }
  ~ServerFixture() {
    server.stop();
    thread.join();
  }
  RpcdServer server;
  std::thread thread;
};

LiveTransport::Options transportOptions(std::uint16_t port) {
  LiveTransport::Options opts;
  opts.port = port;
  opts.timeoutSeconds = 30.0;
  return opts;
}

/// The encoded value of one collect result, for byte comparisons.
std::vector<std::uint8_t> encoded(rpc::CollectOut out) {
  rpc::Encoder enc;
  rpc::encodePayload(enc, out);
  return enc.bytes();
}

/// A lock-step loopback peer: accepts one connection after another,
/// answers a kHello with a kHelloAck, and hands every other request
/// frame to `respond`, which appends a response frame to its buffer and
/// returns true, or returns false to drop the connection instead. A
/// response is written with blocking sends before the next read, so a
/// client that stopped reading stalls the peer's reads too.
class ScriptedPeer {
 public:
  using Respond =
      std::function<bool(std::size_t index, const Frame& request,
                         std::vector<std::uint8_t>& response)>;

  explicit ScriptedPeer(Respond respond) : respond_(std::move(respond)) {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listenFd_, 4), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~ScriptedPeer() {
    stop_ = true;
    ::shutdown(listenFd_, SHUT_RDWR);
    thread_.join();
    ::close(listenFd_);
  }

  std::uint16_t port() const { return port_; }
  int connections() const { return connections_.load(); }

 private:
  void serve() {
    std::size_t index = 0;  // requests seen, across connections
    while (!stop_) {
      const int fd = ::accept(listenFd_, nullptr, nullptr);
      if (fd < 0) return;
      ++connections_;
      FrameDecoder decoder;
      Frame frame;
      std::vector<std::uint8_t> out;
      bool open = true;
      while (open) {
        std::uint8_t buf[65536];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0 || !decoder.feed(buf, static_cast<std::size_t>(n))) break;
        while (open && decoder.next(frame)) {
          out.clear();
          if (frame.type == MsgType::kHello) {
            rpc::Encoder ack;
            ack.putU32(kProtocolVersion);
            ack.putU32(4);  // members
            ack.putI64(1);  // seed
            ack.putString("scripted");
            encodeFrameInto(out, MsgType::kHelloAck, ack.bytes().data(),
                            ack.size());
          } else if (!respond_(index++, frame, out)) {
            open = false;
            break;
          }
          open = writeAll(fd, out);
        }
      }
      ::close(fd);
    }
  }

  static bool writeAll(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  Respond respond_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> connections_{0};
  std::thread thread_;
};

FramedClient::Options peerOptions(const ScriptedPeer& peer) {
  FramedClient::Options opts;
  opts.port = peer.port();
  opts.timeoutSeconds = 30.0;
  opts.peerName = "scripted";
  opts.greeting = "burst-test";
  return opts;
}

/// `count` kFetchSadc frames whose payloads are their indices.
std::vector<std::uint8_t> indexedBurst(std::size_t count) {
  std::vector<std::uint8_t> frames;
  for (std::size_t i = 0; i < count; ++i) {
    rpc::Encoder enc;
    enc.putU32(static_cast<std::uint32_t>(i));
    encodeFrameInto(frames, MsgType::kFetchSadc, enc.bytes().data(),
                    enc.size());
  }
  return frames;
}

std::uint32_t indexOf(const Frame& frame) {
  rpc::Decoder dec(frame.payload);
  return dec.getU32();
}

TEST(PipelinedBurst, ResponsesComeBackInRequestOrder) {
  // Two identical daemons: one answers a burst, the other the same
  // requests one exchange at a time.
  RpcdOptions opts;
  opts.slaves = 4;
  opts.seed = 11;
  ServerFixture burstFx(opts);
  ServerFixture singleFx(opts);
  LiveTransport burst(transportOptions(burstFx.server.port()));
  LiveTransport single(transportOptions(singleFx.server.port()));

  const std::vector<rpc::CollectRequest> requests = {
      {rpc::CollectKind::kSadc, 1, 12.0, kNoTime},
      {rpc::CollectKind::kSadc, 2, 12.0, kNoTime},
      {rpc::CollectKind::kSadc, 3, 12.0, kNoTime},
      {rpc::CollectKind::kSadc, 4, 12.0, kNoTime},
      {rpc::CollectKind::kTt, 1, 12.0, 12.0},
      {rpc::CollectKind::kDn, 3, 12.0, 12.0},
      {rpc::CollectKind::kStrace, 2, 12.0, kNoTime},
  };
  std::vector<metrics::SadcSnapshot> snaps(4), singleSnaps(4);
  std::vector<hadooplog::StateSample> tt, dn, singleTt, singleDn;
  syscalls::TraceSecond trace, singleTrace;
  std::vector<rpc::CollectResult> results = {
      {&snaps[0]}, {&snaps[1]}, {&snaps[2]}, {&snaps[3]},
      {&tt},       {&dn},       {&trace}};
  const std::vector<rpc::CollectOut> singleOuts = {
      &singleSnaps[0], &singleSnaps[1], &singleSnaps[2], &singleSnaps[3],
      &singleTt,       &singleDn,       &singleTrace};
  burst.collect(requests, results);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::size_t bytes = 0;
    ASSERT_TRUE(rpc::collectOne(single, requests[i], singleOuts[i], bytes));
    ASSERT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].responseBytes, bytes) << i;
    EXPECT_EQ(encoded(results[i].out), encoded(singleOuts[i])) << i;
  }
  // Different nodes answer differently, so order mattered.
  EXPECT_NE(encoded(results[0].out), encoded(results[1].out));
  EXPECT_EQ(burst.reconnects(), 0);
}

TEST(PipelinedBurst, ErrorFailsOnlyItsOwnRequest) {
  RpcdOptions opts;
  opts.slaves = 3;
  ServerFixture fx(opts);
  LiveTransport transport(transportOptions(fx.server.port()));

  const std::vector<rpc::CollectRequest> requests = {
      {rpc::CollectKind::kSadc, 1, 5.0, kNoTime},
      {rpc::CollectKind::kSadc, 99, 5.0, kNoTime},  // kUnknownNode
      {rpc::CollectKind::kSadc, 3, 5.0, kNoTime},
  };
  std::vector<metrics::SadcSnapshot> snaps(3);
  std::vector<rpc::CollectResult> results = {
      {&snaps[0]}, {&snaps[1]}, {&snaps[2]}};
  transport.collect(requests, results);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok);
  EXPECT_GT(results[2].responseBytes, 0u);
  // The peer replied to every request: the connection stays up.
  EXPECT_EQ(transport.reconnects(), 0);
  std::size_t bytes = 0;
  EXPECT_TRUE(rpc::collectOne(
      transport, {rpc::CollectKind::kSadc, 2, 5.0, kNoTime}, &snaps[0], bytes));
  EXPECT_EQ(transport.reconnects(), 0);
}

TEST(PipelinedBurst, DropMidBurstFailsTheRestAndTheNextCallRedials) {
  // The first connection answers requests 0 and 1, then drops; the
  // second connection answers everything.
  ScriptedPeer peer([](std::size_t index, const Frame& request,
                       std::vector<std::uint8_t>& out) {
    if (index == 2) return false;
    encodeFrameInto(out, MsgType::kSadcData, request.payload.data(),
                    request.payload.size());
    return true;
  });
  FramedClient client(peerOptions(peer));

  const std::vector<std::uint8_t> frames = indexedBurst(6);
  const std::vector<MsgType> expected(6, MsgType::kSadcData);
  std::vector<Frame> responses(6);
  std::vector<CallStatus> statuses(6, CallStatus::kOk);
  client.callBurst(frames, expected, responses, statuses);
  EXPECT_EQ(statuses[0], CallStatus::kOk);
  EXPECT_EQ(statuses[1], CallStatus::kOk);
  EXPECT_EQ(indexOf(responses[0]), 0u);
  EXPECT_EQ(indexOf(responses[1]), 1u);
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_EQ(statuses[i], CallStatus::kFailed) << i;
  }
  EXPECT_FALSE(client.connected());

  client.callBurst(frames, expected, responses, statuses);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(statuses[i], CallStatus::kOk) << i;
    EXPECT_EQ(indexOf(responses[i]), i);
  }
  EXPECT_EQ(client.reconnects(), 1);
  EXPECT_EQ(peer.connections(), 2);
}

TEST(PipelinedBurst, OutOfStepFrameFailsTheRest) {
  // Request 1 is answered with the wrong type: a stream this far out
  // of step cannot be trusted, so it and everything after it fail.
  ScriptedPeer peer([](std::size_t index, const Frame& request,
                       std::vector<std::uint8_t>& out) {
    encodeFrameInto(out, index == 1 ? MsgType::kTtData : MsgType::kSadcData,
                    request.payload.data(), request.payload.size());
    return true;
  });
  FramedClient client(peerOptions(peer));
  const std::vector<std::uint8_t> frames = indexedBurst(4);
  const std::vector<MsgType> expected(4, MsgType::kSadcData);
  std::vector<Frame> responses(4);
  std::vector<CallStatus> statuses(4);
  client.callBurst(frames, expected, responses, statuses);
  EXPECT_EQ(statuses[0], CallStatus::kOk);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(statuses[i], CallStatus::kFailed) << i;
  }
  EXPECT_FALSE(client.connected());
}

TEST(PipelinedBurst, BurstLargerThanTheSocketBuffersCompletes) {
  // 5000 requests, each answered with 2 KiB by a peer that reads only
  // after its blocking send finished: 10 MiB of responses, far past the
  // loopback socket buffers. A client that sent the whole burst before
  // reading would deadlock against it until the deadline.
  constexpr std::size_t kRequests = 5000;
  constexpr std::size_t kResponseBytes = 2048;
  ScriptedPeer peer([](std::size_t, const Frame& request,
                       std::vector<std::uint8_t>& out) {
    std::vector<std::uint8_t> payload(kResponseBytes, 0x5a);
    std::copy(request.payload.begin(), request.payload.end(),
              payload.begin());
    encodeFrameInto(out, MsgType::kSadcData, payload.data(), payload.size());
    return true;
  });
  FramedClient client(peerOptions(peer));
  const std::vector<std::uint8_t> frames = indexedBurst(kRequests);
  const std::vector<MsgType> expected(kRequests, MsgType::kSadcData);
  std::vector<Frame> responses(kRequests);
  std::vector<CallStatus> statuses(kRequests);
  client.callBurst(frames, expected, responses, statuses);
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(statuses[i], CallStatus::kOk) << i;
    ASSERT_EQ(responses[i].payload.size(), kResponseBytes) << i;
    ASSERT_EQ(indexOf(responses[i]), i);
  }
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.reconnects(), 0);
}

}  // namespace
}  // namespace asdf::net
