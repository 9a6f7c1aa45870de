#include "net/chaos_proxy.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "net/socket.h"

namespace asdf::net {
namespace {

/// splitmix64 finalizer: the stateless per-byte decision hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t byteDecisionHash(std::uint64_t seed, std::uint64_t conn,
                               int dir, std::uint64_t offset) {
  return mix64(mix64(seed ^ conn * 0xD6E8FEB86659FD93ULL) ^
               (static_cast<std::uint64_t>(dir) + 1) * 0xCA5A826395121157ULL ^
               offset);
}

/// Closes a socket so the peer sees an RST, not an orderly FIN.
void closeWithReset(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close(fd);
}

constexpr double kMinTimerSeconds = 0.001;

}  // namespace

const char* chaosEventKindName(ChaosEvent::Kind kind) {
  switch (kind) {
    case ChaosEvent::Kind::kPhaseEnter:
      return "phase";
    case ChaosEvent::Kind::kPartitionStart:
      return "partition-start";
    case ChaosEvent::Kind::kPartitionEnd:
      return "partition-end";
    case ChaosEvent::Kind::kAccept:
      return "accept";
    case ChaosEvent::Kind::kUpstreamFailed:
      return "upstream-failed";
    case ChaosEvent::Kind::kCorrupt:
      return "corrupt";
    case ChaosEvent::Kind::kReset:
      return "reset";
  }
  return "?";
}

std::string ChaosEvent::describe() const {
  return strformat("%s conn=%llu dir=%d offset=%llu phase=%d",
                   chaosEventKindName(kind),
                   static_cast<unsigned long long>(conn), dir,
                   static_cast<unsigned long long>(offset), phase);
}

/// One proxied connection: the accepted client socket plus the dialed
/// upstream socket, with an independent toxic pipeline per direction.
/// Direction 0 reads from the client and writes upstream; direction 1
/// the reverse. fd index: 0 = client, 1 = upstream.
struct ChaosProxy::Relay {
  struct Chunk {
    std::vector<std::uint8_t> data;
    std::size_t consumed = 0;
    double due = 0.0;  // earliest release (arrival + latency + jitter)
  };
  struct Dir {
    std::deque<Chunk> pending;            // read, not yet released
    std::size_t pendingBytes = 0;
    std::vector<std::uint8_t> outbound;   // released, awaiting the sink
    std::uint64_t readOffset = 0;         // stream offset for decisions
    double tokens = 0.0;                  // rate-limiter bucket
    double lastRefill = 0.0;
    int pumpTimer = -1;
    bool eof = false;       // source half-closed; drain then shut sink
    bool resetPending = false;  // reset toxic fired: RST once drained
    bool sinkShut = false;
    Rng jitterRng{1};       // timing only — never feeds the event log
  };

  std::uint64_t id = 0;
  int fd[2] = {-1, -1};
  bool watched[2] = {false, false};
  bool connecting = false;      // upstream dial in flight
  bool dialDeferred = false;    // blackhole held the dial back
  Dir dirs[2];
};

ChaosProxy::ChaosProxy(EventLoop& loop, ChaosOptions opts)
    : loop_(loop),
      opts_(std::move(opts)),
      listener_(loop, opts_.listenPort, /*reusePort=*/false,
                [this](int fd) { addRelay(fd); }) {
  requireIpv4Host(opts_.upstreamHost);
  if (opts_.phases.empty()) opts_.phases.push_back(ChaosPhase{});
  enterPhase(0);
}

ChaosProxy::~ChaosProxy() {
  if (phaseTimer_ >= 0) loop_.cancelTimer(phaseTimer_);
  while (!relays_.empty()) dropRelay(relays_.begin()->first, /*rst=*/false);
}

void ChaosProxy::logEvent(ChaosEvent ev) {
  std::lock_guard<std::mutex> lock(statsMutex_);
  events_.push_back(std::move(ev));
}

std::vector<ChaosEvent> ChaosProxy::events() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return events_;
}

long ChaosProxy::corruptedBytes() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return corruptedBytes_;
}

long ChaosProxy::resets() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return resets_;
}

long ChaosProxy::accepted() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return accepted_;
}

std::uint64_t ChaosProxy::relayedBytes(int dir) const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return relayed_[dir];
}

bool ChaosProxy::corruptsAt(std::uint64_t conn, int dir,
                            std::uint64_t offset, double perKb) const {
  if (perKb <= 0.0) return false;
  const std::uint64_t h = byteDecisionHash(opts_.seed, conn, dir, offset);
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  return u < perKb / 1024.0;
}

std::string ChaosProxy::describeSchedule(std::uint64_t conns,
                                         std::uint64_t horizonBytes) const {
  std::string out = strformat("chaos seed=%llu phases=%zu\n",
                              static_cast<unsigned long long>(opts_.seed),
                              opts_.phases.size());
  for (std::size_t p = 0; p < opts_.phases.size(); ++p) {
    const ChaosPhase& ph = opts_.phases[p];
    auto tox = [](const ChaosToxics& t) {
      return strformat(
          "lat=%.4f jit=%.4f rate=%.0f slice=%zu coalesce=%zu "
          "corrupt=%.4f reset=%llu",
          t.latencySeconds, t.jitterSeconds, t.rateBytesPerSec, t.sliceBytes,
          t.coalesceBytes, t.corruptPerKb,
          static_cast<unsigned long long>(t.resetAfterBytes));
    };
    out += strformat("phase %zu @%.3fs blackhole=%d up[%s] down[%s]\n", p,
                     ph.startSeconds, ph.blackhole ? 1 : 0,
                     tox(ph.up).c_str(), tox(ph.down).c_str());
    for (std::uint64_t c = 1; c <= conns; ++c) {
      for (int d = 0; d < 2; ++d) {
        const ChaosToxics& t = d == 0 ? ph.up : ph.down;
        if (t.corruptPerKb <= 0.0) continue;
        out += strformat("  conn %llu dir %d corrupts:",
                         static_cast<unsigned long long>(c), d);
        for (std::uint64_t o = 0; o < horizonBytes; ++o) {
          if (corruptsAt(c, d, o, t.corruptPerKb)) {
            out += strformat(" %llu", static_cast<unsigned long long>(o));
          }
        }
        out += "\n";
      }
    }
  }
  return out;
}

void ChaosProxy::enterPhase(std::size_t index) {
  const bool wasBlackhole =
      phaseIndex_ < opts_.phases.size() && phase().blackhole;
  phaseIndex_ = index;
  ChaosEvent ev;
  ev.kind = ChaosEvent::Kind::kPhaseEnter;
  ev.phase = static_cast<int>(index);
  logEvent(ev);
  if (phase().blackhole && (!wasBlackhole || index == 0)) {
    ev.kind = ChaosEvent::Kind::kPartitionStart;
    logEvent(ev);
  } else if (!phase().blackhole && wasBlackhole) {
    ev.kind = ChaosEvent::Kind::kPartitionEnd;
    logEvent(ev);
  }
  // (Re)apply watch state: a partition pauses every read; leaving one
  // resumes reads, deferred dials and stalled pumps.
  resumeAll();
  scheduleNextPhase();
}

void ChaosProxy::scheduleNextPhase() {
  if (phaseIndex_ + 1 >= opts_.phases.size()) return;
  const double delay = std::max(
      0.0, opts_.phases[phaseIndex_ + 1].startSeconds -
               opts_.phases[phaseIndex_].startSeconds);
  const std::size_t next = phaseIndex_ + 1;
  phaseTimer_ = loop_.addTimer(delay, [this, next] {
    phaseTimer_ = -1;
    enterPhase(next);
  });
}

void ChaosProxy::addRelay(int fd) {
  auto relay = std::make_unique<Relay>();
  Relay* raw = relay.get();
  raw->id = nextConnId_++;
  raw->fd[0] = fd;
  for (int d = 0; d < 2; ++d) {
    raw->dirs[d].jitterRng =
        Rng(mix64(opts_.seed ^ raw->id * 0xA24BAED4963EE407ULL ^
                  static_cast<std::uint64_t>(d)));
  }
  relays_.emplace(raw->id, std::move(relay));
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++accepted_;
  }
  ChaosEvent ev;
  ev.kind = ChaosEvent::Kind::kAccept;
  ev.conn = raw->id;
  ev.phase = static_cast<int>(phaseIndex_);
  logEvent(ev);

  const std::uint64_t id = raw->id;
  loop_.watchFd(fd, /*wantRead=*/!phase().blackhole, /*wantWrite=*/false,
                [this, id](int, std::uint32_t events) {
                  const auto it = relays_.find(id);
                  if (it != relays_.end()) {
                    handleClientEvents(*it->second, events);
                  }
                });
  raw->watched[0] = true;

  if (phase().blackhole) {
    raw->dialDeferred = true;  // the partition also severs new dials
  } else {
    startUpstreamConnect(*raw);
  }
}

void ChaosProxy::startUpstreamConnect(Relay& relay) {
  relay.dialDeferred = false;
  bool inProgress = false;
  const int fd = dial(opts_.upstreamHost, opts_.upstreamPort, inProgress);
  if (fd < 0) {
    ChaosEvent ev;
    ev.kind = ChaosEvent::Kind::kUpstreamFailed;
    ev.conn = relay.id;
    ev.phase = static_cast<int>(phaseIndex_);
    logEvent(ev);
    dropRelay(relay.id, /*rst=*/true);
    return;
  }
  relay.fd[1] = fd;
  relay.connecting = inProgress;
  const std::uint64_t id = relay.id;
  loop_.watchFd(fd, /*wantRead=*/!relay.connecting,
                /*wantWrite=*/relay.connecting,
                [this, id](int, std::uint32_t events) {
                  const auto it = relays_.find(id);
                  if (it != relays_.end()) {
                    handleUpstreamEvents(*it->second, events);
                  }
                });
  relay.watched[1] = true;
  if (!relay.connecting) pump(relay, 0);
}

void ChaosProxy::handleClientEvents(Relay& relay, std::uint32_t events) {
  if (events & EventLoop::kClosed) {
    dropRelay(relay.id, /*rst=*/false);
    return;
  }
  if (events & EventLoop::kWritable) pump(relay, 1);  // client is dir-1 sink
  if (relays_.find(relay.id) == relays_.end()) return;
  if (events & EventLoop::kReadable) readInto(relay, 0);
}

void ChaosProxy::handleUpstreamEvents(Relay& relay, std::uint32_t events) {
  if (relay.connecting) {
    if ((events & EventLoop::kClosed) || dialError(relay.fd[1]) != 0) {
      ChaosEvent ev;
      ev.kind = ChaosEvent::Kind::kUpstreamFailed;
      ev.conn = relay.id;
      ev.phase = static_cast<int>(phaseIndex_);
      logEvent(ev);
      dropRelay(relay.id, /*rst=*/true);
      return;
    }
    relay.connecting = false;
    loop_.modifyFd(relay.fd[1], /*wantRead=*/!phase().blackhole,
                   /*wantWrite=*/!relay.dirs[0].outbound.empty());
    pump(relay, 0);
    return;
  }
  if (events & EventLoop::kClosed) {
    dropRelay(relay.id, /*rst=*/false);
    return;
  }
  if (events & EventLoop::kWritable) pump(relay, 0);  // upstream is dir-0 sink
  if (relays_.find(relay.id) == relays_.end()) return;
  if (events & EventLoop::kReadable) readInto(relay, 1);
}

void ChaosProxy::readInto(Relay& relay, int dir) {
  if (phase().blackhole) return;  // partition: leave bytes in the kernel
  Relay::Dir& d = relay.dirs[dir];
  if (d.eof) return;
  if (d.pendingBytes + d.outbound.size() >= opts_.maxBufferedBytes) {
    return;  // backpressure: stop reading until the pipeline drains
  }
  const ChaosToxics& tox = dir == 0 ? phase().up : phase().down;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = read(relay.fd[dir], buf, sizeof(buf));
    if (n > 0) {
      std::size_t accept = static_cast<std::size_t>(n);
      bool resetNow = false;
      if (tox.resetAfterBytes > 0 &&
          d.readOffset + accept >= tox.resetAfterBytes) {
        accept = static_cast<std::size_t>(tox.resetAfterBytes - d.readOffset);
        resetNow = true;
      }
      for (std::size_t i = 0; i < accept; ++i) {
        if (corruptsAt(relay.id, dir, d.readOffset + i, tox.corruptPerKb)) {
          const std::uint64_t h =
              byteDecisionHash(opts_.seed, relay.id, dir, d.readOffset + i);
          buf[i] ^= static_cast<std::uint8_t>(1u << ((h >> 13) & 7));
          {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++corruptedBytes_;
          }
          ChaosEvent ev;
          ev.kind = ChaosEvent::Kind::kCorrupt;
          ev.conn = relay.id;
          ev.dir = dir;
          ev.offset = d.readOffset + i;
          ev.phase = static_cast<int>(phaseIndex_);
          logEvent(ev);
        }
      }
      if (accept > 0) {
        Relay::Chunk chunk;
        chunk.data.assign(buf, buf + accept);
        chunk.due = monotonicSeconds() + tox.latencySeconds;
        if (tox.jitterSeconds > 0.0) {
          chunk.due += d.jitterRng.uniform(-tox.jitterSeconds,
                                           tox.jitterSeconds);
        }
        d.readOffset += accept;
        d.pendingBytes += accept;
        d.pending.push_back(std::move(chunk));
      }
      if (resetNow) {
        // The decision is logged now (it is pure in the offset); the
        // teardown waits until every byte below the offset drained to
        // the sink, so the reset lands exactly where the log says.
        {
          std::lock_guard<std::mutex> lock(statsMutex_);
          ++resets_;
        }
        ChaosEvent ev;
        ev.kind = ChaosEvent::Kind::kReset;
        ev.conn = relay.id;
        ev.dir = dir;
        ev.offset = tox.resetAfterBytes;
        ev.phase = static_cast<int>(phaseIndex_);
        logEvent(ev);
        d.eof = true;  // never read past the reset offset
        d.resetPending = true;
        break;
      }
      if (d.pendingBytes + d.outbound.size() >= opts_.maxBufferedBytes) {
        break;  // stop reading; pump() resumes the watch when drained
      }
      continue;
    }
    if (n == 0) {
      d.eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    dropRelay(relay.id, /*rst=*/false);
    return;
  }
  pump(relay, dir);
}

void ChaosProxy::resetRelay(Relay& relay, int dir) {
  for (int d = 0; d < 2; ++d) {
    if (relay.dirs[d].pumpTimer >= 0) {
      loop_.cancelTimer(relay.dirs[d].pumpTimer);
    }
  }
  for (int side = 0; side < 2; ++side) {
    if (relay.fd[side] < 0) continue;
    if (relay.watched[side]) loop_.unwatchFd(relay.fd[side]);
    if (side == dir) {
      closeWithReset(relay.fd[side]);  // the offending source sees RST
    } else {
      close(relay.fd[side]);  // the sink got its bytes, then a FIN
    }
  }
  relays_.erase(relay.id);
}

void ChaosProxy::schedulePump(Relay& relay, int dir, double delaySeconds) {
  Relay::Dir& d = relay.dirs[dir];
  if (d.pumpTimer >= 0) return;  // one pending pump is enough
  const std::uint64_t id = relay.id;
  d.pumpTimer = loop_.addTimer(std::max(kMinTimerSeconds, delaySeconds),
                               [this, id, dir] {
                                 const auto it = relays_.find(id);
                                 if (it == relays_.end()) return;
                                 it->second->dirs[dir].pumpTimer = -1;
                                 pump(*it->second, dir);
                               });
}

/// Moves released bytes toward the sink: applies latency due times,
/// the token-bucket rate limit and slice/coalesce re-chunking, then
/// writes as much of the outbound buffer as the socket accepts.
void ChaosProxy::pump(Relay& relay, int dir) {
  if (phase().blackhole) return;  // resumeAll() restarts us
  Relay::Dir& d = relay.dirs[dir];
  const int sink = relay.fd[1 - dir];
  if (sink < 0 || relay.connecting || d.sinkShut) return;
  const ChaosToxics& tox = dir == 0 ? phase().up : phase().down;
  const double now = monotonicSeconds();

  if (tox.rateBytesPerSec > 0.0) {
    const double cap =
        std::max(1500.0, tox.rateBytesPerSec * 0.25);  // burst bound
    d.tokens = std::min(cap, d.tokens + (now - d.lastRefill) *
                                            tox.rateBytesPerSec);
  }
  d.lastRefill = now;

  // Release due chunks into the outbound buffer.
  while (!d.pending.empty()) {
    Relay::Chunk& front = d.pending.front();
    if (front.due > now) {
      schedulePump(relay, dir, front.due - now);
      break;
    }
    if (tox.coalesceBytes > 0 && !d.eof &&
        d.pendingBytes < tox.coalesceBytes) {
      break;  // hold until enough accumulates (or the source closes)
    }
    std::size_t n = front.data.size() - front.consumed;
    if (tox.sliceBytes > 0) n = std::min(n, tox.sliceBytes);
    if (tox.rateBytesPerSec > 0.0) {
      const std::size_t afford = static_cast<std::size_t>(d.tokens);
      if (afford == 0) {
        schedulePump(relay, dir, 1.0 / tox.rateBytesPerSec);
        break;
      }
      n = std::min(n, afford);
    }
    d.outbound.insert(d.outbound.end(), front.data.begin() + front.consumed,
                      front.data.begin() + front.consumed + n);
    front.consumed += n;
    d.pendingBytes -= n;
    if (tox.rateBytesPerSec > 0.0) d.tokens -= static_cast<double>(n);
    if (front.consumed == front.data.size()) d.pending.pop_front();
    if (tox.sliceBytes > 0 && !d.pending.empty()) {
      // Flush each slice separately so the peer actually sees split
      // segments, and space them out by a minimal timer.
      break;
    }
  }

  // Drain the outbound buffer into the sink.
  while (!d.outbound.empty()) {
    const ssize_t n =
        send(sink, d.outbound.data(), d.outbound.size(), MSG_NOSIGNAL);
    if (n > 0) {
      {
        std::lock_guard<std::mutex> lock(statsMutex_);
        relayed_[dir] += static_cast<std::uint64_t>(n);
      }
      d.outbound.erase(d.outbound.begin(), d.outbound.begin() + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    dropRelay(relay.id, /*rst=*/false);
    return;
  }

  if (tox.sliceBytes > 0 && !d.pending.empty() &&
      d.pending.front().due <= now) {
    schedulePump(relay, dir, kMinTimerSeconds);
  }

  // A pending reset fires once the bytes below its offset drained.
  if (d.resetPending && d.pending.empty() && d.outbound.empty()) {
    resetRelay(relay, dir);
    return;
  }

  // Half-close propagation: the source finished and the pipeline is
  // dry — pass the FIN on; tear down once both directions are done.
  if (d.eof && d.pending.empty() && d.outbound.empty() && !d.sinkShut) {
    d.sinkShut = true;
    shutdown(sink, SHUT_WR);
    const Relay::Dir& other = relay.dirs[1 - dir];
    if (other.eof && other.pending.empty() && other.outbound.empty()) {
      dropRelay(relay.id, /*rst=*/false);
      return;
    }
  }

  // Refresh watch interests: write interest on the sink while bytes
  // wait; read interest on the source unless backpressured.
  const bool sinkWantsWrite = !d.outbound.empty();
  const Relay::Dir& sinkDir = relay.dirs[1 - dir];
  const bool sinkWantsRead =
      !phase().blackhole && !sinkDir.eof &&
      sinkDir.pendingBytes + sinkDir.outbound.size() < opts_.maxBufferedBytes;
  if (relay.watched[1 - dir]) {
    loop_.modifyFd(sink, sinkWantsRead, sinkWantsWrite);
  }
  const int source = relay.fd[dir];
  if (source >= 0 && relay.watched[dir]) {
    const bool srcWantsRead =
        !phase().blackhole && !d.eof &&
        d.pendingBytes + d.outbound.size() < opts_.maxBufferedBytes;
    const bool srcWantsWrite = !relay.dirs[1 - dir].outbound.empty() &&
                               !(dir == 1 && relay.connecting);
    loop_.modifyFd(source, srcWantsRead, srcWantsWrite);
  }
}

void ChaosProxy::resumeAll() {
  const bool blackhole = phase().blackhole;
  // Iterate over ids: pump() may drop relays mid-walk.
  std::vector<std::uint64_t> ids;
  ids.reserve(relays_.size());
  for (const auto& [id, relay] : relays_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = relays_.find(id);
    if (it == relays_.end()) continue;
    Relay& relay = *it->second;
    if (blackhole) {
      for (int side = 0; side < 2; ++side) {
        if (relay.fd[side] >= 0 && relay.watched[side] &&
            !(side == 1 && relay.connecting)) {
          loop_.modifyFd(relay.fd[side], /*wantRead=*/false,
                         /*wantWrite=*/false);
        }
      }
      for (int d = 0; d < 2; ++d) {
        if (relay.dirs[d].pumpTimer >= 0) {
          loop_.cancelTimer(relay.dirs[d].pumpTimer);
          relay.dirs[d].pumpTimer = -1;
        }
      }
      continue;
    }
    if (relay.dialDeferred) startUpstreamConnect(relay);
    if (relays_.find(id) == relays_.end()) continue;
    pump(relay, 0);
    if (relays_.find(id) == relays_.end()) continue;
    pump(relay, 1);
  }
}

void ChaosProxy::dropRelay(std::uint64_t id, bool rst) {
  const auto it = relays_.find(id);
  if (it == relays_.end()) return;
  Relay& relay = *it->second;
  for (int d = 0; d < 2; ++d) {
    if (relay.dirs[d].pumpTimer >= 0) {
      loop_.cancelTimer(relay.dirs[d].pumpTimer);
    }
  }
  for (int side = 0; side < 2; ++side) {
    if (relay.fd[side] < 0) continue;
    if (relay.watched[side]) loop_.unwatchFd(relay.fd[side]);
    if (rst) {
      closeWithReset(relay.fd[side]);
    } else {
      close(relay.fd[side]);
    }
  }
  relays_.erase(it);
}

}  // namespace asdf::net
