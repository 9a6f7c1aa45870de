// Channel-level transport accounting.
//
// Table 4 of the paper reports, per RPC type (sadc-tcp, hl-dn-tcp,
// hl-tt-tcp), the static per-node connection overhead and the
// per-iteration bandwidth. RpcChannelStats accumulates exactly those
// quantities: connection setup bytes once per node, then request +
// response payload (plus per-message framing) per call. The wire costs
// are modeled on a TCP connection carrying ICE-style RPC (transport.cpp).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace asdf::rpc {

/// Calls and payload bytes tallied without a lock, then added to an
/// RpcChannelStats in one step, which charges the framing.
struct ChannelTally {
  long calls = 0;
  long failedCalls = 0;
  std::size_t payloadBytes = 0;  // requests plus responses
};

/// Thread-safe: one channel is shared by every node's daemon of that
/// RPC type, and fpt-core's parallel executors may poll several nodes
/// concurrently. Counter updates are serialized internally.
class RpcChannelStats {
 public:
  explicit RpcChannelStats(std::string name);
  RpcChannelStats(const RpcChannelStats&) = delete;
  RpcChannelStats& operator=(const RpcChannelStats&) = delete;

  /// Records a connection establishment (once per monitored node).
  void recordConnect();

  /// Records one call: request payload out, response payload back.
  void recordCall(std::size_t requestPayload, std::size_t responsePayload) {
    add(ChannelTally{1, 0, requestPayload + responsePayload});
  }

  /// Records a failed attempt: the request (plus framing) went out but
  /// no response came back — timeouts still cost request bandwidth.
  void recordFailedCall(std::size_t requestPayload) {
    add(ChannelTally{0, 1, requestPayload});
  }

  /// Records every call of `tally` under one lock. Every byte count is
  /// whole, so the total equals that of recording the calls one by one.
  void add(const ChannelTally& tally);

  /// Topology tier the channel belongs to: 1 = leaf collection
  /// (daemon -> analysis/aggregator), 2 = summary (aggregator -> root).
  /// Table 4 bandwidth is reported per tier in tiered runs. Idempotent
  /// and thread-safe like the counters.
  void setTier(int tier);
  int tier() const;

  const std::string& name() const { return name_; }
  long connects() const;
  long calls() const;
  long failedCalls() const;
  double staticOverheadBytes() const;   // total connect bytes
  double totalCallBytes() const;        // all request+response traffic
  double bytesPerCall() const;

 private:
  std::string name_;
  mutable std::mutex mutex_;
  int tier_ = 1;
  long connects_ = 0;
  long calls_ = 0;
  long failedCalls_ = 0;
  double payloadBytes_ = 0.0;
};

/// Registry of channels, keyed by RPC type name.
class TransportRegistry {
 public:
  RpcChannelStats& channel(const std::string& name);
  std::vector<const RpcChannelStats*> channels() const;

 private:
  std::map<std::string, RpcChannelStats> channels_;
};

}  // namespace asdf::rpc
