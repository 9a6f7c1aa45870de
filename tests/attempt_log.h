// An rpc::AttemptSink that keeps every attempt, by node, for the
// retry-schedule tests. Thread-safe: a pool executor polls nodes on
// several threads, while one node's attempts arrive in order.
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "rpc/rpc_client.h"

namespace asdf::rpc {

class AttemptLog final : public AttemptSink {
 public:
  void onAttempt(const AttemptRecord& attempt) override {
    std::lock_guard<std::mutex> lock(mutex_);
    byNode_[attempt.node].push_back(attempt);
  }

  /// The node's attempts in issue order (empty when it made none).
  std::vector<AttemptRecord> of(NodeId node) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = byNode_.find(node);
    return it == byNode_.end() ? std::vector<AttemptRecord>{} : it->second;
  }

  /// Each node's attempt issue times (virtual seconds), by node.
  std::map<NodeId, std::vector<double>> times() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<NodeId, std::vector<double>> out;
    for (const auto& [node, attempts] : byNode_) {
      std::vector<double>& t = out[node];
      for (const AttemptRecord& a : attempts) t.push_back(a.at);
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<NodeId, std::vector<AttemptRecord>> byNode_;
};

}  // namespace asdf::rpc
