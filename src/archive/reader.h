// ArchiveReader — crash-recovering, integrity-checking archive loads.
//
// Opening an archive directory scans its segments in index order and
// loads every record into memory (a 50-node, 30-minute run is a few
// tens of MB — replay needs random access by timestamp anyway).
//
// Integrity contract:
//   * Sealed segments (".asar") must verify end to end: valid trailer,
//     footer frame exactly where the trailer points, every frame CRC
//     good, zero unframed bytes, and footer counts matching the
//     records actually present. Any single flipped bit fails the open
//     (the frame CRC-32 covers payloads; header fields are validated
//     structurally; the trailer is checked field by field).
//   * Active segments (".asar.open" — a crashed or still-running
//     writer) tolerate exactly one torn tail: trailing bytes that do
//     not yet assemble into a frame are reported via tornTailBytes().
//     A decode *error* (bad magic / CRC) is still corruption.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "archive/format.h"

namespace asdf::archive {

struct SegmentInfo {
  std::string path;
  std::uint64_t index = 0;
  bool sealed = false;
  std::uint32_t version = kFormatVersion;  // from the meta frame
  std::int64_t fileBytes = 0;
  std::int64_t records = 0;
  std::int64_t checkpoints = 0;  // format v2 full-state snapshots
  double firstNow = kNoTime;
  double lastNow = kNoTime;
  std::size_t tornTailBytes = 0;  // .open segments only
};

/// One segment file loaded under the integrity contract above.
struct SegmentContents {
  SegmentInfo info;
  ArchiveMeta meta;
  std::optional<TruthRecord> truth;
  std::vector<SampleRecord> records;  // file order
};

/// Loads and validates one segment — the per-segment step of
/// ArchiveReader, and the read under which compaction (tsdb/) accepts
/// exactly the segments `asdf_archive verify` accepts. Throws
/// ArchiveError on anything the integrity contract rejects.
SegmentContents readSegment(const SegmentFile& file);

class ArchiveReader {
 public:
  /// Loads and validates every segment. Throws ArchiveError on an
  /// unreadable directory, an empty archive, or any corruption the
  /// integrity contract above rejects.
  explicit ArchiveReader(const std::string& dir);

  const ArchiveMeta& meta() const { return meta_; }
  const std::optional<TruthRecord>& truth() const { return truth_; }
  const std::vector<SegmentInfo>& segments() const { return segments_; }
  /// All sample records in file order (per-stream seq ascending).
  const std::vector<SampleRecord>& records() const { return records_; }

  double firstNow() const;
  double lastNow() const;
  std::size_t tornTailBytes() const;

  struct VerifyResult {
    bool ok = false;
    std::int64_t recordsVerified = 0;
    std::size_t tornTailBytes = 0;
    std::vector<std::string> errors;
    /// Per-segment record counts and time ranges (successful verify
    /// only) — lets an operator spot a short segment without replay.
    std::vector<SegmentInfo> segments;
  };
  /// Full-archive integrity check (the `asdf_archive verify` command):
  /// ok iff the archive loads under the contract above.
  static VerifyResult verify(const std::string& dir);

 private:
  ArchiveMeta meta_;
  std::optional<TruthRecord> truth_;
  std::vector<SegmentInfo> segments_;
  std::vector<SampleRecord> records_;
};

/// Copies records with `fromTime <= now <= toTime` (plus meta + truth)
/// into a fresh archive at dstDir. Returns the number of records kept.
std::int64_t trimArchive(const std::string& srcDir, const std::string& dstDir,
                         double fromTime, double toTime);

}  // namespace asdf::archive
