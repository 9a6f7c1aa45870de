#include "rpc/rpc_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <type_traits>

#include "rpc/payloads.h"

namespace asdf::rpc {
namespace {

// The simulated fault gate's healthy round-trip time; under PacketLoss
// an attempt fails with probability lossRate^kLossFailureExponent.
constexpr double kBaseLatencySeconds = 0.002;
constexpr double kLossFailureExponent = 2.0;

// Channel names (Table 4's RPC types) by CollectKind.
constexpr const char* kChannelNames[kCollectKindCount] = {
    "sadc-tcp", "hl-tt-tcp", "hl-dn-tcp", "strace-tcp"};

std::uint64_t mixSeed(std::uint64_t seed, NodeId node) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(node + 1);
}

}  // namespace

double jitteredBackoff(double baseSeconds, double maxSeconds, int attempt,
                       Rng& rng) {
  return std::min(maxSeconds, baseSeconds * std::pow(2.0, attempt)) *
         (1.0 + 0.25 * (2.0 * rng.uniform() - 1.0));
}

const char* daemonName(Daemon d) {
  switch (d) {
    case Daemon::kSadc:
      return "sadc_rpcd";
    case Daemon::kHadoopLog:
      return "hadoop_log_rpcd";
    case Daemon::kStrace:
      return "strace_rpcd";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// MonitoringFaultBoard

void MonitoringFaultBoard::setCrashed(NodeId node, Daemon d, bool crashed) {
  nodes_[node].crashed[static_cast<int>(d)] = crashed;
}

void MonitoringFaultBoard::setHung(NodeId node, Daemon d, bool hung) {
  nodes_[node].hung[static_cast<int>(d)] = hung;
}

void MonitoringFaultBoard::setSlowFactor(NodeId node, Daemon d,
                                         double factor) {
  nodes_[node].slow[static_cast<int>(d)] = factor;
}

void MonitoringFaultBoard::setPartitioned(NodeId node, bool partitioned) {
  nodes_[node].partitioned = partitioned;
}

const MonitoringFaultBoard::NodeFaultState* MonitoringFaultBoard::find(
    NodeId node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

bool MonitoringFaultBoard::crashed(NodeId node, Daemon d) const {
  const NodeFaultState* s = find(node);
  return s != nullptr && s->crashed[static_cast<int>(d)];
}

bool MonitoringFaultBoard::hung(NodeId node, Daemon d) const {
  const NodeFaultState* s = find(node);
  return s != nullptr && s->hung[static_cast<int>(d)];
}

double MonitoringFaultBoard::slowFactor(NodeId node, Daemon d) const {
  const NodeFaultState* s = find(node);
  return s == nullptr ? 1.0 : s->slow[static_cast<int>(d)];
}

bool MonitoringFaultBoard::partitioned(NodeId node) const {
  const NodeFaultState* s = find(node);
  return s != nullptr && s->partitioned;
}

// ---------------------------------------------------------------------------
// CircuitBreaker

CircuitBreaker::State CircuitBreaker::state(SimTime now) const {
  if (!open_) return State::kClosed;
  return now >= probeAt_ ? State::kHalfOpen : State::kOpen;
}

bool CircuitBreaker::allowRound(SimTime now) const {
  return state(now) != State::kOpen;
}

void CircuitBreaker::onRoundSuccess(SimTime) {
  consecutiveFailures_ = 0;
  open_ = false;
  probeAt_ = kNoTime;
}

void CircuitBreaker::onRoundFailure(SimTime now) {
  ++consecutiveFailures_;
  if (open_) {
    // A failed HALF_OPEN probe: back to OPEN for a fresh interval.
    probeAt_ = now + recovery_;
    return;
  }
  if (consecutiveFailures_ >= threshold_) {
    open_ = true;
    probeAt_ = now + recovery_;
    ++opens_;
  }
}

// ---------------------------------------------------------------------------
// NodeHealthRegistry

NodeHealthRegistry::NodeHealthRegistry(int nodes)
    : entries_(static_cast<std::size_t>(std::max(0, nodes))) {}

const NodeHealthRegistry::NodeEntry* NodeHealthRegistry::find(
    NodeId node) const {
  const auto slot = static_cast<std::size_t>(node) - 1;
  return node >= 1 && slot < entries_.size() ? &entries_[slot] : nullptr;
}

void NodeHealthRegistry::mark(std::span<const HealthMark> marks) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const HealthMark& m : marks) {
    // at() refuses a node outside 1..N (the index wraps below 1).
    ChannelEntry& e = entries_.at(static_cast<std::size_t>(m.node) - 1)
                          [static_cast<int>(m.daemon)];
    e.health = m.health;
    if (m.health == NodeHealth::kUnmonitorable) {
      ++e.failures;
    } else {
      e.lastSuccess = m.now;
      ++e.successes;
    }
  }
}

NodeHealth NodeHealthRegistry::channelHealth(NodeId node, Daemon d) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const NodeEntry* e = find(node);
  if (e == nullptr) return NodeHealth::kHealthy;
  return (*e)[static_cast<int>(d)].health;
}

NodeHealth NodeHealthRegistry::aggregate(NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const NodeEntry* entry = find(node);
  if (entry == nullptr) return NodeHealth::kHealthy;
  NodeHealth worst = NodeHealth::kHealthy;
  for (const ChannelEntry& e : *entry) {
    // Channels that have never been polled (e.g. strace without an
    // strace module) carry no signal.
    if (e.successes == 0 && e.failures == 0) continue;
    worst = std::max(worst, e.health,
                     [](NodeHealth a, NodeHealth b) {
                       return static_cast<int>(a) < static_cast<int>(b);
                     });
  }
  return worst;
}

double NodeHealthRegistry::staleness(NodeId node, Daemon d,
                                     SimTime now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const NodeEntry* entry = find(node);
  if (entry == nullptr) return 0.0;
  const ChannelEntry& e = (*entry)[static_cast<int>(d)];
  if (e.lastSuccess == kNoTime) {
    return e.failures > 0 ? now : 0.0;
  }
  return std::max(0.0, now - e.lastSuccess);
}

std::vector<NodeId> NodeHealthRegistry::nodes() const {
  std::vector<NodeId> out(entries_.size());
  std::iota(out.begin(), out.end(), NodeId{1});
  return out;
}

// ---------------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(LiveCollector& collector, RpcPolicy policy,
                     std::uint64_t seed, bool realBackoff)
    : collector_(collector),
      realBackoff_(realBackoff),
      policy_(policy),
      registry_(collector.slaves()) {
  for (int k = 0; k < kCollectKindCount; ++k) {
    channels_[k] = &transports_.channel(kChannelNames[k]);
  }
  states_.reserve(static_cast<std::size_t>(std::max(0, collector.slaves())));
  for (NodeId node = 1; node <= collector.slaves(); ++node) {
    states_.emplace_back(mixSeed(seed, node), policy_);
    // One connection per node per channel (Table 4 static overhead).
    for (RpcChannelStats* channel : channels_) channel->recordConnect();
  }
}

RpcClient::RpcClient(hadoop::Cluster& cluster, LiveCollector& collector,
                     RpcPolicy policy, std::uint64_t seed)
    : RpcClient(collector, policy, seed, /*realBackoff=*/false) {
  cluster_ = &cluster;
}

RpcClient::NodeState& RpcClient::state(NodeId node) {
  return states_.at(static_cast<std::size_t>(node) - 1);
}

const RpcClient::NodeState& RpcClient::state(NodeId node) const {
  return states_.at(static_cast<std::size_t>(node) - 1);
}

bool RpcClient::admit(NodeState& st, const CollectRequest& req,
                      double& costSeconds) {
  if (cluster_ == nullptr) return true;
  const NodeId node = req.node;
  const Daemon d = daemonOf(req.kind);
  if (board_.partitioned(node) || board_.crashed(node, d)) {
    // Connection refused / unreachable: fails within one RTT.
    costSeconds = kBaseLatencySeconds;
    return false;
  }
  if (board_.hung(node, d)) {
    costSeconds = policy_.timeoutSeconds;
    return false;
  }
  const double latency =
      kBaseLatencySeconds * board_.slowFactor(node, d);
  if (latency > policy_.timeoutSeconds) {
    costSeconds = policy_.timeoutSeconds;
    return false;
  }
  const double loss = cluster_->node(node).nic().lossRate();
  if (loss > 0.0 &&
      st.rng.bernoulli(std::pow(loss, kLossFailureExponent))) {
    // Enough retransmissions were lost that the attempt blew its
    // timeout — the PacketLoss fault degrades the monitoring plane too.
    costSeconds = policy_.timeoutSeconds;
    return false;
  }
  costSeconds = latency;
  return true;
}

int RpcClient::openRound(NodeState& st, const CollectRequest& req,
                         BatchBook& book) {
  ++st.rounds;
  if (!st.breaker.allowRound(req.now)) {
    ++st.fastFails;
    ++st.failedRounds;
    book.marks.push_back({req.node, daemonOf(req.kind), req.now,
                          NodeHealth::kUnmonitorable});
    return 0;  // never touches the wire
  }
  // A HALF_OPEN breaker sends exactly one probe; retrying a probe would
  // defeat the point of easing back in.
  const bool probing =
      st.breaker.state(req.now) == CircuitBreaker::State::kHalfOpen;
  return probing ? 1 : 1 + policy_.maxRetries;
}

template <typename T>
void RpcClient::settleRound(const CollectRequest& req, Fetched<T>& out,
                            const Round& round, bool firstOk,
                            std::size_t firstResponseBytes, BatchBook& book) {
  const NodeId node = req.node;
  const SimTime now = req.now;
  const Daemon d = daemonOf(req.kind);
  NodeState& st = *round.st;
  ChannelTally& channel = book.channels[static_cast<int>(req.kind)];
  SimTime t = now;
  bool ok = firstOk;
  std::size_t responseBytes = firstResponseBytes;
  double cost = round.firstCost;
  for (int i = 0; i < round.maxAttempts; ++i) {
    if (i > 0) {
      // The fault gate draws first (its loss draw precedes any jitter
      // draw); an attempt it passes goes to the collector.
      cost = 0.0;
      ok = admit(st, req, cost) &&
           collectOne(collector_, req, &out.value, responseBytes);
    }
    if (attemptSink_ != nullptr) {
      attemptSink_->onAttempt(AttemptRecord{node, t, d, i, ok});
    }
    out.attempts = i + 1;
    if (ok) {
      if constexpr (std::is_same_v<T, syscalls::TraceSecond>) {
        // Account the hub's convention — length prefix plus one byte
        // per event — not a live transport's padded frame payload.
        responseBytes = 4 + out.value.size();
      }
      out.ok = true;
      out.retried = i > 0;
      st.retries += i;
      st.breaker.onRoundSuccess(now);
      book.marks.push_back({node, d, now,
                            out.retried ? NodeHealth::kDegraded
                                        : NodeHealth::kHealthy});
      ++channel.calls;
      channel.payloadBytes += kCollectRequestBytes + responseBytes;
      return;
    }
    // A failed attempt still put the request (+ framing overhead) on
    // the wire.
    ++channel.failedCalls;
    channel.payloadBytes += kCollectRequestBytes;
    t += cost;
    if (i + 1 < round.maxAttempts) {
      const double backoff =
          jitteredBackoff(policy_.backoffBase, policy_.backoffMax, i, st.rng);
      t += backoff;
      if (realBackoff_) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
  }
  st.retries += round.maxAttempts - 1;
  ++st.failedRounds;
  st.breaker.onRoundFailure(now);
  book.marks.push_back({node, d, now, NodeHealth::kUnmonitorable});
}

void RpcClient::apply(BatchBook& book) {
  for (int k = 0; k < kCollectKindCount; ++k) {
    const ChannelTally& tally = book.channels[k];
    if (tally.calls + tally.failedCalls > 0) channels_[k]->add(tally);
  }
  book.channels = {};
  registry_.mark(book.marks);
  book.marks.clear();
}

template <typename T>
void RpcClient::report(const CollectRequest& req, Fetched<T>& out) {
  if (observer_ == nullptr) return;
  Encoder enc;
  if (out.ok) encodePayload(enc, &out.value);
  CollectSample sample;
  sample.kind = req.kind;
  sample.node = req.node;
  sample.now = req.now;
  sample.watermark = req.watermark;
  sample.attempts = out.attempts;
  sample.ok = out.ok;
  sample.payload = enc.bytes().data();
  sample.payloadSize = enc.size();
  observer_->onSample(sample);
}

template <typename T>
void RpcClient::fetchBatch(std::span<const CollectRequest> requests,
                           std::span<Fetched<T>* const> outs) {
  // Per-thread scratch: collectors on a pool executor may batch
  // concurrently. Warm buffers keep a steady-state batch allocation-free.
  struct Scratch {
    std::vector<Round> rounds;
    std::vector<CollectRequest> firsts;
    std::vector<CollectResult> results;
    BatchBook book;
  };
  static thread_local Scratch scratch;
  // Applied on every exit, so a throwing collector leaves no stale tally.
  struct ApplyOnExit {
    RpcClient& client;
    BatchBook& book;
    ~ApplyOnExit() { client.apply(book); }
  } applyOnExit{*this, scratch.book};

  std::size_t begin = 0;
  while (begin < requests.size()) {
    scratch.rounds.clear();
    scratch.firsts.clear();
    scratch.results.clear();
    // Open every round and gate its first attempt, until a node repeats:
    // a node's second round must see its first one settled.
    std::size_t end = begin;
    for (; end < requests.size(); ++end) {
      const CollectRequest& req = requests[end];
      NodeState& st = state(req.node);
      if (st.inBatch) break;
      st.inBatch = true;
      Fetched<T>& out = *outs[end];
      out.ok = false;
      out.retried = false;
      out.attempts = 0;
      Round& round = scratch.rounds.emplace_back();
      round.st = &st;
      round.maxAttempts = openRound(st, req, scratch.book);
      if (round.maxAttempts > 0 && admit(st, req, round.firstCost)) {
        round.slot = scratch.firsts.size();
        scratch.firsts.push_back(req);
        scratch.results.push_back(CollectResult{&out.value});
      }
    }
    for (const Round& round : scratch.rounds) round.st->inBatch = false;

    if (!scratch.firsts.empty()) {
      collector_.collect(scratch.firsts, scratch.results);
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Round& round = scratch.rounds[i - begin];
      if (round.maxAttempts > 0) {
        const bool admitted = round.slot != kNotAdmitted;
        const CollectResult* first =
            admitted ? &scratch.results[round.slot] : nullptr;
        settleRound(requests[i], *outs[i], round, admitted && first->ok,
                    admitted ? first->responseBytes : 0, scratch.book);
      }
      report(requests[i], *outs[i]);
    }
    begin = end;
  }
}

template void RpcClient::fetchBatch<metrics::SadcSnapshot>(
    std::span<const CollectRequest>,
    std::span<Fetched<metrics::SadcSnapshot>* const>);
template void RpcClient::fetchBatch<std::vector<hadooplog::StateSample>>(
    std::span<const CollectRequest>,
    std::span<Fetched<std::vector<hadooplog::StateSample>>* const>);
template void RpcClient::fetchBatch<syscalls::TraceSecond>(
    std::span<const CollectRequest>,
    std::span<Fetched<syscalls::TraceSecond>* const>);

namespace {

/// One fetch round as a batch of one.
template <typename T>
void fetchOne(RpcClient& client, const CollectRequest& req, Fetched<T>& out) {
  Fetched<T>* const target = &out;
  client.fetchBatch<T>({&req, 1}, {&target, 1});
}

}  // namespace

void RpcClient::fetchSadc(NodeId node, SimTime now,
                          Fetched<metrics::SadcSnapshot>& out) {
  fetchOne(*this, {CollectKind::kSadc, node, now, kNoTime}, out);
}

void RpcClient::fetchTt(NodeId node, SimTime now, SimTime watermark,
                        Fetched<std::vector<hadooplog::StateSample>>& out) {
  fetchOne(*this, {CollectKind::kTt, node, now, watermark}, out);
}

void RpcClient::fetchDn(NodeId node, SimTime now, SimTime watermark,
                        Fetched<std::vector<hadooplog::StateSample>>& out) {
  fetchOne(*this, {CollectKind::kDn, node, now, watermark}, out);
}

void RpcClient::fetchStrace(NodeId node, SimTime now,
                            Fetched<syscalls::TraceSecond>& out) {
  fetchOne(*this, {CollectKind::kStrace, node, now, kNoTime}, out);
}

CircuitBreaker::State RpcClient::breakerState(NodeId node,
                                              SimTime now) const {
  return state(node).breaker.state(now);
}

long RpcClient::sum(long NodeState::*counter) const {
  long total = 0;
  for (const NodeState& st : states_) total += st.*counter;
  return total;
}

long RpcClient::totalBreakerOpens() const {
  long total = 0;
  for (const NodeState& st : states_) total += st.breaker.opens();
  return total;
}

NodeId nodeIdFromOrigin(const std::string& origin) {
  constexpr const char kPrefix[] = "slave";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (origin.size() <= kPrefixLen ||
      origin.compare(0, kPrefixLen, kPrefix) != 0) {
    return kInvalidNode;
  }
  NodeId id = 0;
  for (std::size_t i = kPrefixLen; i < origin.size(); ++i) {
    const char c = origin[i];
    if (c < '0' || c > '9') return kInvalidNode;
    id = id * 10 + (c - '0');
  }
  return id >= 1 ? id : kInvalidNode;
}

}  // namespace asdf::rpc
