// tsdb::Store — the query engine over a recorded archive.
//
// A Store opens an archive directory and answers time-ranged scans of
// one (node, metric) series at raw or rollup resolution:
//
//   Store store(dir);
//   ScanResult r = store.scan({node, "cpu_user_pct", 100.0, 160.0,
//                              Resolution::k10s});
//
// Per segment, in index order, the scan takes the cheapest path that
// exists:
//   * compacted (`tsdb/seg-N.astd` present and built from the current
//     raw bytes): two pread()s locate the chunk via the footer index,
//     one more reads exactly the chunk frame — no other byte of the
//     file is touched, which is where the >=100x over full replay
//     comes from.
//   * sealed but uncompacted: the raw segment's footer checkpoint
//     index seeks past records older than `from` (raw resolution);
//     rollups walk the whole segment so bucket contents are identical
//     to what compaction would have produced.
//   * active (".asar.open"): walked from byte zero, torn tail
//     tolerated — the recording is queryable while the daemon runs.
//
// Rollup buckets spanning a segment boundary merge in segment order:
// min/max/count combine exactly, partial sums add left to right (the
// order-defined sum of format.h). Raw scans are bit-exact against a
// full ArchiveReader replay of the same range.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tsdb/format.h"

namespace asdf::tsdb {

/// Flattened-vector index of a metric name ("cpu_user_pct",
/// "eth0.rxkb_per_s", ...). Throws TsdbError on an unknown name.
std::uint32_t metricIndexOf(const std::string& name);
/// All queryable metric names, in flattened-vector order.
const std::vector<std::string>& metricNames();

struct ScanOptions {
  NodeId node = 0;
  std::string metric;          // flattened sadc vector name
  double from = 0.0;           // inclusive
  double to = 0.0;             // inclusive
  Resolution resolution = Resolution::kRaw;
};

struct ScanResult {
  Resolution resolution = Resolution::kRaw;
  std::vector<RawPoint> points;   // raw resolution
  std::vector<Bucket> buckets;    // rollup resolutions
  // Where the data came from — `asdf_archive query` prints these.
  std::int64_t segmentsVisited = 0;
  std::int64_t segmentsSkipped = 0;    // index said: nothing in range
  std::int64_t compactedScans = 0;     // chunk pread path
  std::int64_t rawScans = 0;           // uncompacted fallback walks
  std::int64_t checkpointSeeks = 0;    // raw fallbacks that seeked
};

struct StoreStats {
  std::int64_t segments = 0;
  std::int64_t sealedSegments = 0;
  std::int64_t compactedSegments = 0;
  std::int64_t staleCompactions = 0;  // .astd built from different bytes
  std::int64_t tsdbBytes = 0;
  std::int64_t compactedPoints = 0;   // raw points indexed in .astd files
  double firstNow = kNoTime;          // over compacted files
  double lastNow = kNoTime;
};

class Store {
 public:
  /// Scans the archive directory and loads every compacted file's
  /// meta frame (two small preads each); footer indexes and chunk
  /// payloads stay on disk until a scan needs them. Throws TsdbError
  /// when the directory has no segments at all, or when a compacted
  /// file is present but corrupt. Not thread-safe: scans memoize
  /// footer indexes into the Store.
  explicit Store(const std::string& archiveDir);

  ScanResult scan(const ScanOptions& opts) const;
  StoreStats stats() const;

 private:
  struct Segment {
    archive::SegmentFile raw;
    std::string tsdbPath;        // empty when not compacted
    TsdbMeta tsdbMeta;           // valid when compacted
    std::uint64_t footerOffset = 0;
    // The chunk index is decoded lazily, only when a scan cannot prune
    // the segment off the meta's time range (scans are logically
    // const; the footer cache is a memoization, hence mutable).
    mutable TsdbFooter tsdbFooter;
    mutable bool footerLoaded = false;
    bool compacted = false;
    bool stale = false;          // .astd exists but source bytes differ
  };

  void scanCompacted(const Segment& seg, const ScanOptions& opts,
                     std::uint32_t metric, std::uint32_t level,
                     ScanResult& out) const;
  void scanRaw(const Segment& seg, const ScanOptions& opts,
               std::uint32_t metric, std::uint32_t level,
               ScanResult& out) const;

  std::string dir_;
  std::vector<Segment> segments_;
};

/// The store's open of one compacted file: two small preads check the
/// trailer and decode the meta frame. Returns the footer offset the
/// trailer names. Throws on a damaged trailer or meta frame; the
/// compactor rebuilds any file this open rejects.
std::uint64_t loadTsdbMeta(const std::string& path, TsdbMeta& meta);

/// Integrity check of every compacted file in the archive's tsdb/
/// subdirectory: every frame CRC, footer index offsets/counts against
/// the chunks actually present, trailer placement. Any flipped bit in
/// an .astd fails here.
struct TsdbVerifyResult {
  bool ok = true;
  std::int64_t files = 0;
  std::int64_t chunks = 0;
  std::vector<std::string> errors;
};
TsdbVerifyResult verifyTsdb(const std::string& archiveDir);

}  // namespace asdf::tsdb
