// ArchiveWriter — the flight recorder's append side.
//
// Implements rpc::CollectionObserver so it can be plugged into either of
// the collection plane's taps (RpcClient, RpcdServer) and
// persists every observed collection round into segment files under
// one directory (format.h). Durability contract:
//
//   * Records reach the file with unbuffered ::write() calls, so after
//     a SIGKILL the active segment holds every committed record plus
//     at most one torn tail — which the reader detects and skips.
//   * Sealing a segment writes footer + trailer, fsyncs the file,
//     renames ".asar.open" -> ".asar", then fsyncs the directory: a
//     sealed name is a promise that the footer index is durable.
//
// Segments rotate by size and by archived time span. A new writer in a
// non-empty directory continues numbering after the highest existing
// segment (daemon restarts append rather than clobber).
//
// Thread-safe: onSample() may be called from pool threads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "archive/format.h"

namespace asdf::archive {

struct ArchiveWriterOptions {
  std::string dir;
  std::size_t maxSegmentBytes = 8u << 20;  // seal + rotate past this
  double maxSegmentSeconds = 600.0;        // archived (virtual) time span
  /// Checkpoint cadence in archived (virtual) seconds (format v2): a
  /// full-state snapshot is interleaved whenever this much archived
  /// time has passed since the previous one. 0 disables checkpoints.
  double checkpointSeconds = 60.0;
  /// Invoked after each segment seals (fsync + rename durable) with
  /// the sealed path and segment index — the hook that hands sealed
  /// segments to the tsdb compactor while recording continues. Called
  /// with the writer lock held: keep it cheap (queue push) and never
  /// call back into the writer.
  std::function<void(const std::string& sealedPath, std::uint64_t index)>
      onSeal;
};

class ArchiveWriter final : public rpc::CollectionObserver {
 public:
  /// Creates the directory when missing and opens the first segment
  /// (meta frame included) immediately, so even a zero-sample run
  /// leaves a replayable archive. Throws ArchiveError on I/O failure.
  ArchiveWriter(ArchiveWriterOptions opts, ArchiveMeta meta);
  ~ArchiveWriter() override;
  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  /// Collection tap: persists one observed round. Samples arriving
  /// after close() are dropped (daemon-shutdown race).
  void onSample(const rpc::CollectSample& sample) override;

  /// Re-archives an existing record verbatim (seq preserved) — the
  /// `asdf_archive trim` path.
  void append(const SampleRecord& rec);

  /// Writes the ground-truth record into the active segment. Call once
  /// when the recording run ends, before close().
  void writeTruth(const TruthRecord& truth);

  /// Seals the active segment. Idempotent.
  void close();

  /// Test hook: abandons the active segment without sealing it, as a
  /// SIGKILL would — the ".open" file keeps every committed record.
  void abandonForTest();

  long recordsWritten() const;
  long segmentsSealed() const;
  std::int64_t bytesWritten() const;
  /// Bytes committed to the active segment so far (test hook for the
  /// truncation sweep: offsets are exact because writes are unbuffered).
  std::int64_t activeSegmentBytes() const;

 private:
  void openSegmentLocked();
  void sealSegmentLocked();
  void maybeRotateLocked(double now);
  void writeSampleLocked(const rpc::CollectSample& sample, std::int64_t seq);
  void writeCheckpointLocked(double now);
  void writeFrameLocked(net::MsgType type, const rpc::Encoder& enc);
  void writeAllLocked(const std::uint8_t* data, std::size_t size);

  ArchiveWriterOptions opts_;
  ArchiveMeta meta_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  std::string activePath_;
  std::uint64_t nextIndex_ = 1;
  std::int64_t segmentBytes_ = 0;
  double segmentStartNow_ = kNoTime;
  SegmentFooter footer_;
  std::map<std::pair<int, NodeId>, std::int64_t> nextSeq_;
  // Checkpoint state: per-stream watermarks fed by every written
  // record (including trim appends), plus the latest sadc payload per
  // node, decoded lazily at checkpoint time.
  std::map<std::pair<int, NodeId>, StreamState> streams_;
  std::map<NodeId, std::pair<double, std::vector<std::uint8_t>>> lastSadc_;
  double lastCheckpointNow_ = kNoTime;
  long recordsWritten_ = 0;
  long segmentsSealed_ = 0;
  std::int64_t bytesWritten_ = 0;
};

}  // namespace asdf::archive
