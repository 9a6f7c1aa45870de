#include "archive/collector.h"

#include <bit>

#include "rpc/payloads.h"

namespace asdf::archive {
namespace {

// Timestamps key bit-exactly: the replayed module schedule computes
// the same doubles the recording run computed, not merely close ones.
std::uint64_t timeKey(SimTime now) {
  return std::bit_cast<std::uint64_t>(now);
}

}  // namespace

ArchiveCollector::ArchiveCollector(const std::string& dir) : reader_(dir) {
  for (const SampleRecord& rec : reader_.records()) {
    // Duplicate keys keep the first occurrence (a daemon-side archive
    // can hold one record per *served attempt* of a retried round).
    index_.emplace(std::make_tuple(static_cast<int>(rec.kind), rec.node,
                                   timeKey(rec.now)),
                   Entry{&rec, 0});
  }
}

void ArchiveCollector::collect(std::span<const rpc::CollectRequest> requests,
                               std::span<rpc::CollectResult> results) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const rpc::CollectRequest& req = requests[i];
    rpc::CollectResult& result = results[i];
    const auto it = index_.find(std::make_tuple(static_cast<int>(req.kind),
                                                req.node, timeKey(req.now)));
    if (it == index_.end()) {
      ++misses_;
      continue;
    }
    // A recorded failed round fails every attempt, a recorded retry its
    // first attempts - 1, and an undecodable payload every attempt.
    Entry& e = it->second;
    const bool replayRetry =
        e.rec->ok && e.failuresServed < e.rec->attempts - 1;
    if (replayRetry) ++e.failuresServed;
    rpc::Decoder dec(e.rec->payload);
    if (!e.rec->ok || replayRetry || !rpc::decodeInto(dec, result.out)) {
      ++replayedFailures_;
      continue;
    }
    ++hits_;
    result.ok = true;
    result.responseBytes = e.rec->payload.size();
  }
}

long ArchiveCollector::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

long ArchiveCollector::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

long ArchiveCollector::replayedFailures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replayedFailures_;
}

}  // namespace asdf::archive
