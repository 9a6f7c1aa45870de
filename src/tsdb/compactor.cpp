#include "tsdb/compactor.h"

#include <fcntl.h>
#include <unistd.h>

#include <map>

#include "archive/reader.h"
#include "metrics/sadc.h"
#include "net/frame.h"
#include "tsdb/store.h"

namespace asdf::tsdb {
namespace {

void appendFrame(std::vector<std::uint8_t>& file, net::MsgType type,
                 const rpc::Encoder& enc) {
  const std::vector<std::uint8_t> frame = net::encodeFrame(type, enc);
  file.insert(file.end(), frame.begin(), frame.end());
}

/// True when `path` is a .astd the store can open, built from source
/// segment `index` when it was `sourceBytes` long.
bool upToDate(const std::string& path, std::uint64_t index,
              std::int64_t sourceBytes) {
  TsdbMeta existing;
  try {
    loadTsdbMeta(path, existing);
  } catch (const std::exception&) {
    return false;  // absent or damaged: rebuild
  }
  return existing.sourceIndex == index &&
         existing.sourceFileBytes == sourceBytes;
}

}  // namespace

CompactResult compactSegment(const std::string& archiveDir,
                             const std::string& segPath, std::uint64_t index,
                             bool force) {
  CompactResult result;
  result.index = index;
  const std::string tsdbDir = archiveDir + "/" + kTsdbSubdir;
  result.path = tsdbDir + "/" + tsdbFileName(index);

  const std::int64_t sourceBytes = archive::fileBytesOf(segPath);
  if (sourceBytes < 0) {
    throw TsdbError("tsdb: stat " + segPath + ": " + archive::errnoString());
  }
  if (!force && upToDate(result.path, index, sourceBytes)) {
    result.skipped = true;
    result.fileBytes = archive::fileBytesOf(result.path);
    return result;
  }

  const archive::SegmentContents segment =
      archive::readSegment({segPath, index, /*sealed=*/true});
  TsdbMeta meta;
  meta.sourceIndex = index;
  meta.sourceFileBytes = sourceBytes;
  meta.metricCount = static_cast<std::uint32_t>(metrics::kFlatNodeVectorSize);
  // (node, metric index) -> time-ordered raw points.
  std::map<std::pair<NodeId, std::uint32_t>, std::vector<RawPoint>> series;
  std::vector<double> values;
  for (const archive::SampleRecord& rec : segment.records) {
    if (!archive::recordMetrics(rec, values)) continue;
    if (meta.samplePoints == 0) meta.firstNow = rec.now;
    meta.lastNow = rec.now;
    for (std::uint32_t m = 0; m < values.size(); ++m) {
      series[{rec.node, m}].push_back({rec.now, values[m]});
      ++meta.samplePoints;
    }
  }

  std::vector<std::uint8_t> file;
  {
    rpc::Encoder enc;
    encodeTsdbMeta(enc, meta);
    appendFrame(file, kTsdbMetaRecord, enc);
  }

  TsdbFooter footer;
  footer.firstNow = meta.firstNow;
  footer.lastNow = meta.lastNow;
  footer.samplePoints = meta.samplePoints;
  for (const auto& [key, points] : series) {
    const auto [node, metric] = key;
    {
      ChunkIndexEntry entry;
      entry.node = node;
      entry.metric = metric;
      entry.level = 0;
      entry.offset = file.size();
      entry.count = static_cast<std::int64_t>(points.size());
      entry.firstNow = points.front().t;
      entry.lastNow = points.back().t;
      rpc::Encoder enc;
      encodeColumnChunk(enc, node, metric, points);
      appendFrame(file, kColumnChunkRecord, enc);
      footer.chunks.push_back(entry);
      ++result.chunks;
    }
    for (const std::uint32_t level : kRollupLevels) {
      std::vector<Bucket> buckets;
      for (const RawPoint& p : points) {
        accumulateBucket(buckets, level, p.t, p.v);
      }
      ChunkIndexEntry entry;
      entry.node = node;
      entry.metric = metric;
      entry.level = level;
      entry.offset = file.size();
      entry.count = static_cast<std::int64_t>(buckets.size());
      entry.firstNow = points.front().t;
      entry.lastNow = points.back().t;
      rpc::Encoder enc;
      encodeRollupChunk(enc, node, metric, level, buckets);
      appendFrame(file, kRollupChunkRecord, enc);
      footer.chunks.push_back(entry);
      ++result.chunks;
    }
  }
  result.rawPoints = meta.samplePoints;

  const std::uint64_t footerOffset = file.size();
  {
    rpc::Encoder enc;
    encodeTsdbFooter(enc, footer);
    appendFrame(file, kTsdbFooterRecord, enc);
  }
  const std::vector<std::uint8_t> trailer =
      archive::encodeTrailer(kTsdbTrailer, footerOffset);
  file.insert(file.end(), trailer.begin(), trailer.end());

  // Same durability receipt as segment sealing: everything on disk
  // before the rename publishes the queryable name.
  archive::ensureDir(tsdbDir);
  const std::string tmpPath = result.path + ".tmp";
  const int fd = ::open(tmpPath.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw TsdbError("tsdb: open " + tmpPath + ": " + archive::errnoString());
  }
  try {
    archive::writeAll(fd, tmpPath, file.data(), file.size());
  } catch (...) {
    ::close(fd);
    ::unlink(tmpPath.c_str());
    throw;
  }
  try {
    archive::publishFile(fd, tmpPath, result.path, tsdbDir);
  } catch (...) {
    ::unlink(tmpPath.c_str());
    throw;
  }
  result.fileBytes = static_cast<std::int64_t>(file.size());
  return result;
}

std::vector<CompactResult> compactArchive(const std::string& archiveDir,
                                          bool force) {
  std::vector<CompactResult> out;
  for (const archive::SegmentFile& seg :
       archive::listSegments(archiveDir, ".asar")) {
    if (seg.sealed) {
      out.push_back(compactSegment(archiveDir, seg.path, seg.index, force));
    }
  }
  return out;
}

BackgroundCompactor::BackgroundCompactor(std::string archiveDir)
    : archiveDir_(std::move(archiveDir)),
      worker_([this] { run(); }) {}

BackgroundCompactor::~BackgroundCompactor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void BackgroundCompactor::enqueue(const std::string& sealedPath,
                                  std::uint64_t index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    queue_.emplace_back(sealedPath, index);
  }
  cv_.notify_one();
}

void BackgroundCompactor::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

long BackgroundCompactor::compacted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return compacted_;
}

long BackgroundCompactor::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::string BackgroundCompactor::lastError() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lastError_;
}

void BackgroundCompactor::run() {
  while (true) {
    std::pair<std::string, std::uint64_t> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: sealed segments already
      // handed over should become queryable before shutdown.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    try {
      compactSegment(archiveDir_, job.first, job.second);
      std::lock_guard<std::mutex> lock(mutex_);
      ++compacted_;
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++failed_;
      lastError_ = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      busy_ = false;
      if (queue_.empty()) idleCv_.notify_all();
    }
  }
}

}  // namespace asdf::tsdb
