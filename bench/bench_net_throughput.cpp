// Live-wire throughput: frames/sec, MB/s and per-exchange latency
// through the full client encode -> loopback TCP -> server decode ->
// response -> client decode path.
//
// Each channel is one concurrent TCP connection driven by its own
// client thread (so `--channels=64` really is 64 simultaneous
// connections hitting the server at once — see the note below).
// `--pipeline=K` is the fan-out mode: every connection keeps K
// requests outstanding, writing a batch of K frames in one syscall and
// draining K responses before the next batch. That is what saturates a
// sharded server — the corked write path answers a K-deep batch with
// one sendmsg — and it is how LiveTransport's fan-out collector
// actually drives the daemon.
//
// Usage:
//   bench_net_throughput [--seconds=2] [--channels=1,8,64] [--shards=N]
//                        [--pipeline=K] [--json=PATH]
//                        [--min-frames-per-sec=N]
//
// --min-frames-per-sec gates the LAST (largest) channel point: exit 1
// when it comes in under N. CI uses it to pin the sharded+pipelined
// configuration at >=5x the committed single-loop baseline
// (bench/baselines/net_throughput.json vs net_throughput_sharded.json).
//
// Measurement note (schema v2): v1 of this bench ran strict one-
// request-deep ping-pong per channel, so "channels" measured little
// beyond the single-exchange round trip multiplied by however many
// connections fit in one core's syscall budget. v2 keeps channel ==
// connection but adds pipelining and per-exchange p50/p99 latency
// (microseconds from batch write start to that response's decode) so
// the baseline gates tail latency, not just throughput.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "metrics/catalog.h"
#include "net/frame.h"
#include "net/shard_group.h"
#include "rpc/wire.h"

namespace {

using namespace asdf;
using namespace asdf::net;

// --channels bound: each channel is one client thread.
constexpr long kMaxChannels = 1024;

// Representative payloads: a kFetchSadc request and a sadc-snapshot
// sized response (64 node metrics + 18 NIC metrics + a handful of
// per-process vectors), the largest frame the collection plane sends
// every second.
std::vector<std::uint8_t> makeRequest() {
  rpc::Encoder enc;
  enc.putU32(1);
  enc.putDouble(1234.5);
  return encodeFrame(MsgType::kFetchSadc, enc);
}

rpc::Encoder makeResponse() {
  rpc::Encoder enc;
  enc.putDouble(1234.5);
  std::vector<double> node(metrics::kNodeMetricCount, 3.25);
  std::vector<double> nic(metrics::kNicMetricCount, 7.5);
  enc.putDoubleVector(node);
  enc.putDoubleVector(nic);
  enc.putU32(4);
  for (int p = 0; p < 4; ++p) {
    enc.putString("proc" + std::to_string(p));
    enc.putDoubleVector(std::vector<double>(metrics::kProcessMetricCount, 1.5));
  }
  return enc;
}

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Sample {
  int channels = 0;
  long frames = 0;       // request/response pairs completed
  double seconds = 0.0;
  double framesPerSec = 0.0;
  double mbPerSec = 0.0;   // both directions, header + payload
  double p50Us = 0.0;      // per-exchange latency percentiles
  double p99Us = 0.0;
};

bool writeAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Sample runOne(int channels, int pipeline, double seconds, std::uint16_t port,
              std::size_t bytesPerExchange) {
  const std::vector<std::uint8_t> request = makeRequest();
  // The fan-out batch: K identical requests, written in one syscall.
  std::vector<std::uint8_t> batch;
  for (int k = 0; k < pipeline; ++k) {
    batch.insert(batch.end(), request.begin(), request.end());
  }

  std::atomic<bool> stopFlag{false};
  std::vector<long> counts(static_cast<std::size_t>(channels), 0);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(channels));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    workers.emplace_back([&, c] {
      const int fd = connectLoopback(port);
      if (fd < 0) return;
      FrameDecoder decoder;
      std::uint8_t chunk[65536];
      Frame frame;
      std::vector<double>& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(4096);
      while (!stopFlag.load(std::memory_order_relaxed)) {
        const auto batchStart = std::chrono::steady_clock::now();
        if (!writeAll(fd, batch.data(), batch.size())) break;
        int pendingResponses = pipeline;
        while (pendingResponses > 0) {
          if (decoder.next(frame)) {
            --pendingResponses;
            ++counts[static_cast<std::size_t>(c)];
            // Latency is honest for pipelined exchanges: the clock for
            // every response in the batch starts when its request hit
            // the wire (they all left in the same write).
            if (lat.size() < (1u << 20)) {
              lat.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - batchStart)
                                .count());
            }
            continue;
          }
          const ssize_t n = ::read(fd, chunk, sizeof(chunk));
          if (n <= 0 || !decoder.feed(chunk, static_cast<std::size_t>(n))) {
            ::close(fd);
            return;
          }
        }
      }
      ::close(fd);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stopFlag.store(true);
  // Workers blocked in read() are woken by their own in-flight batch;
  // every exchange is short, so joining is prompt.
  for (std::thread& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Sample s;
  s.channels = channels;
  for (long n : counts) s.frames += n;
  s.seconds = elapsed;
  s.framesPerSec = static_cast<double>(s.frames) / elapsed;
  s.mbPerSec = s.framesPerSec * static_cast<double>(bytesPerExchange) / 1e6;

  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  if (!all.empty()) {
    const auto pct = [&all](double q) {
      const std::size_t idx = std::min(
          all.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(all.size())));
      std::nth_element(all.begin(),
                       all.begin() + static_cast<std::ptrdiff_t>(idx),
                       all.end());
      return all[idx];
    };
    s.p50Us = pct(0.50);
    s.p99Us = pct(0.99);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"seconds", "channels", "shards", "pipeline",
                       "min-frames-per-sec", "json"});
  const double seconds = bench::flagDouble(argc, argv, "seconds", 2.0);
  const std::vector<long> channelList = bench::flagIntList(
      argc, argv, "channels", 1, kMaxChannels, {1, 8, 64});
  const std::string jsonPath = bench::flagValue(argc, argv, "json", "");
  const int shards =
      std::max(1, static_cast<int>(bench::flagInt(argc, argv, "shards", 1)));
  const int pipeline =
      std::max(1, static_cast<int>(bench::flagInt(argc, argv, "pipeline", 1)));
  const double minFramesPerSec =
      bench::flagDouble(argc, argv, "min-frames-per-sec", 0.0);

  ShardGroup group(ShardGroupOptions{0, shards});
  const rpc::Encoder response = makeResponse();
  group.onFrame([&response](TcpServer::Connection& conn, const Frame&) {
    conn.send(MsgType::kSadcData, response);
  });
  std::thread serverThread([&group] { group.runOnCaller(); });

  const std::size_t requestWire = makeRequest().size();
  const std::size_t responseWire = kFrameHeaderBytes + response.size();
  const std::size_t bytesPerExchange = requestWire + responseWire;
  std::printf("net throughput: %zu B request + %zu B response per exchange, "
              "%.1f s per point, %d shard%s (%s), pipeline depth %d\n",
              requestWire, responseWire, seconds, group.shardCount(),
              group.shardCount() == 1 ? "" : "s",
              group.usingReusePort() ? "SO_REUSEPORT" : "single listener",
              pipeline);
  bench::printRule();
  std::printf("%10s %14s %10s %10s %10s %10s\n", "channels", "frames/s",
              "MB/s", "p50 us", "p99 us", "frames");
  bench::printRule();

  std::vector<Sample> samples;
  for (const long channels : channelList) {
    const Sample s = runOne(static_cast<int>(channels), pipeline, seconds,
                            group.port(), bytesPerExchange);
    samples.push_back(s);
    std::printf("%10d %14.0f %10.2f %10.1f %10.1f %10ld\n", s.channels,
                s.framesPerSec, s.mbPerSec, s.p50Us, s.p99Us, s.frames);
    std::fflush(stdout);
  }
  bench::printRule();
  std::printf("server: %ld frames served, %ld connections rejected\n",
              group.framesServed(), group.connectionsRejected());

  group.stop();
  serverThread.join();

  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"net_throughput\",\n");
    std::fprintf(f, "  \"schema_version\": 2,\n");
    std::fprintf(f, "  \"exchange_bytes\": %zu,\n", bytesPerExchange);
    std::fprintf(f, "  \"seconds_per_point\": %.2f,\n", seconds);
    std::fprintf(f, "  \"shards\": %d,\n", group.shardCount());
    std::fprintf(f, "  \"reuse_port\": %s,\n",
                 group.usingReusePort() ? "true" : "false");
    std::fprintf(f, "  \"pipeline\": %d,\n", pipeline);
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::fprintf(f,
                   "    {\"channels\": %d, \"frames_per_sec\": %.0f, "
                   "\"mb_per_sec\": %.2f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f}%s\n",
                   s.channels, s.framesPerSec, s.mbPerSec, s.p50Us, s.p99Us,
                   i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", jsonPath.c_str());
  }

  if (minFramesPerSec > 0.0) {
    if (samples.empty() || samples.back().framesPerSec < minFramesPerSec) {
      std::fprintf(stderr,
                   "FAIL: %.0f frames/s at %d channels is below the "
                   "--min-frames-per-sec=%.0f gate\n",
                   samples.empty() ? 0.0 : samples.back().framesPerSec,
                   samples.empty() ? 0 : samples.back().channels,
                   minFramesPerSec);
      return 1;
    }
    std::printf("gate: %.0f frames/s >= %.0f required\n",
                samples.back().framesPerSec, minFramesPerSec);
  }
  return 0;
}
