#include "rpc/transport.h"

#include <utility>

namespace asdf::rpc {
namespace {

// Wire costs shared by all channels: 3-way handshake + protocol
// negotiation at connect, and per-message TCP/IP + RPC header overhead.
constexpr double kConnectBytes = 2028.0;  // handshake + validation + proxy
constexpr std::size_t kPerMessageOverheadBytes = 78;  // TCP/IP + RPC header

}  // namespace

RpcChannelStats::RpcChannelStats(std::string name) : name_(std::move(name)) {}

void RpcChannelStats::recordConnect() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++connects_;
}

void RpcChannelStats::add(const ChannelTally& tally) {
  // A call is two messages (request and response), a failed call one.
  const auto messages =
      static_cast<std::size_t>(2 * tally.calls + tally.failedCalls);
  std::lock_guard<std::mutex> lock(mutex_);
  calls_ += tally.calls;
  failedCalls_ += tally.failedCalls;
  payloadBytes_ += static_cast<double>(tally.payloadBytes +
                                       messages * kPerMessageOverheadBytes);
}

void RpcChannelStats::setTier(int tier) {
  std::lock_guard<std::mutex> lock(mutex_);
  tier_ = tier;
}

int RpcChannelStats::tier() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tier_;
}

long RpcChannelStats::connects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connects_;
}

long RpcChannelStats::calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

long RpcChannelStats::failedCalls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failedCalls_;
}

double RpcChannelStats::staticOverheadBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(connects_) * kConnectBytes;
}

double RpcChannelStats::totalCallBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return payloadBytes_;
}

double RpcChannelStats::bytesPerCall() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_ == 0 ? 0.0 : payloadBytes_ / static_cast<double>(calls_);
}

RpcChannelStats& TransportRegistry::channel(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_.try_emplace(name, name).first;
  }
  return it->second;
}

std::vector<const RpcChannelStats*> TransportRegistry::channels() const {
  std::vector<const RpcChannelStats*> out;
  out.reserve(channels_.size());
  for (const auto& [name, ch] : channels_) out.push_back(&ch);
  return out;
}

}  // namespace asdf::rpc
