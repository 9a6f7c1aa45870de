// Delta compaction: sealed raw segments -> queryable column files.
//
// A compaction pass reads one sealed archive segment (`seg-N.asar`)
// through archive::readSegment — under the reader's integrity
// contract, so it accepts exactly the segments `asdf_archive verify`
// accepts — turns every record that carries queryable metrics
// (archive::recordMetrics) into per-(node, metric) series, and
// writes the column-oriented counterpart `tsdb/seg-N.astd` next to it
// (format in tsdb/format.h): raw column chunks, the three rollup
// levels, a chunk index footer, and the ASTS trailer. The raw segment
// is NEVER modified — replay stays byte-identical — and the compacted
// file is published with the same fsync-then-rename receipt as
// segment sealing, so a crash mid-compaction leaves at most a *.tmp
// file the next pass overwrites.
//
// Two drivers share the pass:
//   * compactArchive() — the offline `asdf_archive compact` command:
//     compacts every sealed segment that has no up-to-date .astd (a
//     .astd the store can open, built from the same source).
//   * BackgroundCompactor — a single worker thread fed by the
//     ArchiveWriter's onSeal hook inside asdf_rpcd, so a recording
//     archive becomes queryable segment by segment while the daemon
//     is still appending to the next one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tsdb/format.h"

namespace asdf::tsdb {

struct CompactResult {
  std::uint64_t index = 0;
  std::string path;  // the .astd written (or found up to date)
  bool skipped = false;  // an up-to-date .astd already existed
  std::int64_t rawPoints = 0;
  std::int64_t chunks = 0;
  std::int64_t fileBytes = 0;
};

/// Compacts one sealed segment into `<archiveDir>/tsdb/seg-N.astd`.
/// Unless `force`, skips (without reading the segment) when a .astd
/// the store can open (loadTsdbMeta), built from a source segment of
/// the same index and byte size, already exists; any other .astd is
/// rebuilt. Throws when the segment fails the reader's integrity
/// contract.
CompactResult compactSegment(const std::string& archiveDir,
                             const std::string& segPath, std::uint64_t index,
                             bool force = false);

/// Compacts every sealed segment of the archive, oldest first.
std::vector<CompactResult> compactArchive(const std::string& archiveDir,
                                          bool force = false);

/// Single worker thread draining a queue of freshly sealed segments.
/// enqueue() is cheap and never blocks on IO — safe to call from the
/// ArchiveWriter's onSeal hook (which runs under the writer lock).
class BackgroundCompactor {
 public:
  explicit BackgroundCompactor(std::string archiveDir);
  ~BackgroundCompactor();

  void enqueue(const std::string& sealedPath, std::uint64_t index);
  /// Blocks until every enqueued segment has been processed.
  void drain();

  long compacted() const;
  long failed() const;
  std::string lastError() const;

 private:
  void run();

  std::string archiveDir_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idleCv_;
  std::deque<std::pair<std::string, std::uint64_t>> queue_;
  bool stopping_ = false;
  bool busy_ = false;
  long compacted_ = 0;
  long failed_ = 0;
  std::string lastError_;
  std::thread worker_;
};

}  // namespace asdf::tsdb
