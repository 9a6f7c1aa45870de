// ArchiveCollector — replay an archive through the live client path.
//
// Implements rpc::LiveCollector over an archive directory, so
// RpcClient's timeout/retry/breaker/health/byte-accounting machinery
// runs unchanged (ExperimentSpec.transport = replay). Each archived
// record keys on (kind, node, bit pattern of `now`): the fpt-core
// module schedule is deterministic, so a replayed run asks for exactly
// the timestamps the recording run fetched.
//
// Round outcomes reproduce faithfully:
//   * ok record, attempts = n  — the collector fails the first n-1
//     attempts of the round, then succeeds: the client re-derives the
//     same retried/degraded bookkeeping and charges the same failed-
//     attempt bytes the original run charged.
//   * !ok record               — every attempt fails; the client fails
//     the round, feeds its breaker, marks the node unmonitorable.
//   * missing key              — failed round (a partially recorded
//     archive degrades gracefully instead of faulting the pipeline).
//   * undecodable payload      — every attempt fails, counted as a
//     replayed failure (ArchiveWriter accepts opaque payload bytes).
//
// Breaker fast-fail rounds (attempts = 0) never reach the collector in
// either run, so they reproduce from the identical outcome history.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "archive/reader.h"
#include "rpc/live_collector.h"

namespace asdf::archive {

class ArchiveCollector final : public rpc::LiveCollector {
 public:
  /// Loads the archive (ArchiveReader rules; throws ArchiveError).
  explicit ArchiveCollector(const std::string& dir);

  const ArchiveMeta& meta() const { return reader_.meta(); }
  const std::optional<TruthRecord>& truth() const { return reader_.truth(); }
  const ArchiveReader& reader() const { return reader_; }

  int slaves() const override { return reader_.meta().slaves; }
  /// Serves each request of the batch from its record; the index is
  /// per (kind, node, now), so the batch's order does not matter.
  void collect(std::span<const rpc::CollectRequest> requests,
               std::span<rpc::CollectResult> results) override;

  /// Successful attempts served from the archive.
  long hits() const;
  /// Attempts for which no record exists (schedule divergence or a
  /// truncated archive) — zero on a faithful replay.
  long misses() const;
  /// Attempts failed to reproduce a recorded retry or failed round, or
  /// on a record whose payload does not decode.
  long replayedFailures() const;

 private:
  struct Entry {
    const SampleRecord* rec = nullptr;
    int failuresServed = 0;  // of the rec->attempts - 1 recorded retries
  };

  ArchiveReader reader_;
  mutable std::mutex mutex_;
  std::map<std::tuple<int, NodeId, std::uint64_t>, Entry> index_;
  long hits_ = 0;
  long misses_ = 0;
  long replayedFailures_ = 0;
};

}  // namespace asdf::archive
