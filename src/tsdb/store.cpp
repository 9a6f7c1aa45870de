#include "tsdb/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "archive/format.h"
#include "common/bytes.h"
#include "metrics/sadc.h"
#include "net/frame.h"

namespace asdf::tsdb {
namespace {

using archive::errnoString;
using archive::fileBytesOf;

class Fd {
 public:
  explicit Fd(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)), path_(path) {
    if (fd_ < 0) throw TsdbError("tsdb: open " + path + ": " + errnoString());
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      throw TsdbError("tsdb: stat " + path + ": " + errnoString());
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  ~Fd() { ::close(fd_); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  std::uint64_t size() const { return size_; }

  void preadAll(std::uint8_t* buf, std::size_t n, std::uint64_t off) const {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t got = ::pread(fd_, buf + done, n - done,
                                  static_cast<off_t>(off + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        throw TsdbError("tsdb: pread " + path_ + ": " + errnoString());
      }
      if (got == 0) {
        throw TsdbError("tsdb: " + path_ + ": short read at offset " +
                        std::to_string(off + done));
      }
      done += static_cast<std::size_t>(got);
    }
  }

 private:
  int fd_;
  std::string path_;
  std::uint64_t size_ = 0;
};

/// Reads and CRC-verifies exactly one frame at `offset`, without
/// touching any other byte of the file past the 16-byte header.
net::Frame readFrameAt(const Fd& fd, const std::string& path,
                       std::uint64_t offset, std::uint64_t limit) {
  if (offset + net::kFrameHeaderBytes > limit) {
    throw TsdbError("tsdb: " + path + ": chunk offset past the index "
                    "region");
  }
  std::uint8_t header[net::kFrameHeaderBytes];
  fd.preadAll(header, sizeof(header), offset);
  const std::uint32_t payloadLen = bytes::readU32(header + 8);
  if (payloadLen > net::kMaxFramePayloadBytes ||
      offset + net::kFrameHeaderBytes + payloadLen > limit) {
    throw TsdbError("tsdb: " + path + ": chunk frame overruns the file");
  }
  std::vector<std::uint8_t> whole(net::kFrameHeaderBytes + payloadLen);
  std::memcpy(whole.data(), header, sizeof(header));
  fd.preadAll(whole.data() + net::kFrameHeaderBytes, payloadLen,
              offset + net::kFrameHeaderBytes);
  net::FrameDecoder decoder;
  decoder.feed(whole.data(), whole.size());
  net::Frame frame;
  if (decoder.error() != net::FrameDecoder::Error::kNone ||
      !decoder.next(frame)) {
    throw TsdbError("tsdb: " + path + ": chunk frame decode failed (" +
                    net::frameErrorName(decoder.error()) + ")");
  }
  return frame;
}

void loadTsdbFooter(const std::string& path, std::uint64_t footerOffset,
                    TsdbFooter& footer) {
  const Fd fd(path);
  if (fd.size() < kTsdbTrailerBytes) {
    throw TsdbError("tsdb: " + path + ": shorter than its trailer");
  }
  const std::uint64_t framedEnd = fd.size() - kTsdbTrailerBytes;
  const net::Frame footerFrame = readFrameAt(fd, path, footerOffset,
                                             framedEnd);
  if (footerFrame.type != kTsdbFooterRecord) {
    throw TsdbError("tsdb: " + path + ": trailer does not point at a "
                    "footer record");
  }
  rpc::Decoder footerDec(footerFrame.payload);
  footer = decodeTsdbFooter(footerDec);
  if (!footerDec.exhausted()) {
    throw TsdbError("tsdb: " + path + ": footer record has trailing bytes");
  }
}

bool bucketIntersects(const Bucket& b, std::uint32_t level, double from,
                      double to) {
  const double start = b.startTime(level);
  return start <= to && start + static_cast<double>(level) > from;
}

/// True when a chunk/segment whose raw points span [firstNow, lastNow]
/// can contribute nothing to the scan. Raw scans prune on the point
/// times themselves; rollup scans must prune in bucket space — a
/// bucket's window extends past the raw extremes, so a chunk whose
/// last point is just before `from` can still own the bucket that
/// straddles it.
bool rangeMisses(double firstNow, double lastNow, std::uint32_t level,
                 double from, double to) {
  if (level == 0) return firstNow > to || lastNow < from;
  return bucketIndexOf(firstNow, level) > bucketIndexOf(to, level) ||
         bucketIndexOf(lastNow, level) < bucketIndexOf(from, level);
}

}  // namespace

// Reads only the trailer and the meta frame. The footer index — ~nodes
// x metrics x 4 entries — is decoded lazily by loadTsdbFooter() only
// for segments a scan cannot prune off the meta's time range; eagerly
// decoding every footer is what would make Store construction scale
// with archive size.
std::uint64_t loadTsdbMeta(const std::string& path, TsdbMeta& meta) {
  const Fd fd(path);
  if (fd.size() < kTsdbTrailerBytes + net::kFrameHeaderBytes) {
    throw TsdbError("tsdb: " + path + ": shorter than trailer + header");
  }
  std::uint8_t trailer[kTsdbTrailerBytes];
  fd.preadAll(trailer, sizeof(trailer), fd.size() - kTsdbTrailerBytes);
  const std::uint64_t footerOffset =
      archive::checkTrailer(kTsdbTrailer, path, trailer, fd.size());
  const std::uint64_t framedEnd = fd.size() - kTsdbTrailerBytes;
  const net::Frame metaFrame = readFrameAt(fd, path, 0, framedEnd);
  if (metaFrame.type != kTsdbMetaRecord) {
    throw TsdbError("tsdb: " + path + ": first frame is not a tsdb meta "
                    "record");
  }
  rpc::Decoder metaDec(metaFrame.payload);
  meta = decodeTsdbMeta(metaDec);
  if (!metaDec.exhausted()) {
    throw TsdbError("tsdb: " + path + ": meta record has trailing bytes");
  }
  return footerOffset;
}

std::uint32_t metricIndexOf(const std::string& name) {
  const std::vector<std::string>& names = metricNames();
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  throw TsdbError("tsdb: unknown metric '" + name + "' (" +
                  std::to_string(names.size()) + " metrics; e.g. \"" +
                  names.front() + "\", \"" + names.back() + "\")");
}

const std::vector<std::string>& metricNames() {
  static const std::vector<std::string> names =
      metrics::flattenedNodeVectorNames();
  return names;
}

Store::Store(const std::string& archiveDir) : dir_(archiveDir) {
  for (const archive::SegmentFile& file :
       archive::listSegments(archiveDir, ".asar")) {
    Segment seg;
    seg.raw = file;
    segments_.push_back(std::move(seg));
  }
  if (segments_.empty()) {
    throw TsdbError("tsdb: no segments in " + archiveDir);
  }

  for (Segment& seg : segments_) {
    if (!seg.raw.sealed) continue;
    const std::string tsdbPath =
        archiveDir + "/" + kTsdbSubdir + "/" + tsdbFileName(seg.raw.index);
    if (fileBytesOf(tsdbPath) < 0) continue;  // not compacted yet
    seg.footerOffset = loadTsdbMeta(tsdbPath, seg.tsdbMeta);
    if (seg.tsdbMeta.sourceIndex != seg.raw.index) {
      throw TsdbError("tsdb: " + tsdbPath + ": names segment " +
                      std::to_string(seg.raw.index) + " but was built from "
                      "segment " +
                      std::to_string(seg.tsdbMeta.sourceIndex));
    }
    // Built from different raw bytes (e.g. the segment was replaced by
    // a trim into the same directory): fall back to the raw walk.
    if (seg.tsdbMeta.sourceFileBytes != fileBytesOf(seg.raw.path)) {
      seg.stale = true;
      continue;
    }
    seg.tsdbPath = tsdbPath;
    seg.compacted = true;
  }
}

ScanResult Store::scan(const ScanOptions& opts) const {
  if (opts.from > opts.to) {
    throw TsdbError("tsdb: empty scan range (from " +
                    std::to_string(opts.from) + " > to " +
                    std::to_string(opts.to) + ")");
  }
  const std::uint32_t metric = metricIndexOf(opts.metric);
  const std::uint32_t level = static_cast<std::uint32_t>(opts.resolution);
  ScanResult out;
  out.resolution = opts.resolution;
  for (const Segment& seg : segments_) {
    ++out.segmentsVisited;
    if (seg.compacted) {
      scanCompacted(seg, opts, metric, level, out);
    } else {
      scanRaw(seg, opts, metric, level, out);
    }
  }
  return out;
}

void Store::scanCompacted(const Segment& seg, const ScanOptions& opts,
                          std::uint32_t metric, std::uint32_t level,
                          ScanResult& out) const {
  // Whole-file pruning off the meta loaded at construction: no read
  // at all when the segment's time range misses the scan window —
  // this is also what keeps the footer index unloaded for most
  // segments of a narrow-window query.
  if (seg.tsdbMeta.samplePoints == 0 ||
      rangeMisses(seg.tsdbMeta.firstNow, seg.tsdbMeta.lastNow, level,
                  opts.from, opts.to)) {
    ++out.segmentsSkipped;
    return;
  }
  if (!seg.footerLoaded) {
    loadTsdbFooter(seg.tsdbPath, seg.footerOffset, seg.tsdbFooter);
    seg.footerLoaded = true;
  }
  const ChunkIndexEntry* entry = nullptr;
  for (const ChunkIndexEntry& c : seg.tsdbFooter.chunks) {
    if (c.node == opts.node && c.metric == metric && c.level == level) {
      entry = &c;
      break;
    }
  }
  if (entry == nullptr) {
    ++out.segmentsSkipped;  // node never reported in this segment
    return;
  }
  if (rangeMisses(entry->firstNow, entry->lastNow, level, opts.from,
                  opts.to)) {
    ++out.segmentsSkipped;
    return;
  }
  ++out.compactedScans;
  const Fd fd(seg.tsdbPath);
  const std::uint64_t framedEnd = fd.size() - kTsdbTrailerBytes;
  const net::Frame frame =
      readFrameAt(fd, seg.tsdbPath, entry->offset, framedEnd);
  rpc::Decoder dec(frame.payload);
  NodeId node = 0;
  std::uint32_t chunkMetric = 0;
  if (level == 0) {
    if (frame.type != kColumnChunkRecord) {
      throw TsdbError("tsdb: " + seg.tsdbPath + ": index points a raw "
                      "scan at a non-column frame");
    }
    std::vector<RawPoint> points;
    decodeColumnChunk(dec, node, chunkMetric, points);
    if (node != opts.node || chunkMetric != metric) {
      throw TsdbError("tsdb: " + seg.tsdbPath + ": chunk identity "
                      "disagrees with the footer index");
    }
    for (const RawPoint& p : points) {
      if (p.t >= opts.from && p.t <= opts.to) out.points.push_back(p);
    }
  } else {
    if (frame.type != kRollupChunkRecord) {
      throw TsdbError("tsdb: " + seg.tsdbPath + ": index points a rollup "
                      "scan at a non-rollup frame");
    }
    std::uint32_t chunkLevel = 0;
    std::vector<Bucket> buckets;
    decodeRollupChunk(dec, node, chunkMetric, chunkLevel, buckets);
    if (node != opts.node || chunkMetric != metric || chunkLevel != level) {
      throw TsdbError("tsdb: " + seg.tsdbPath + ": chunk identity "
                      "disagrees with the footer index");
    }
    std::vector<Bucket> inRange;
    for (const Bucket& b : buckets) {
      if (bucketIntersects(b, level, opts.from, opts.to)) {
        inRange.push_back(b);
      }
    }
    mergeBuckets(out.buckets, inRange);
  }
}

void Store::scanRaw(const Segment& seg, const ScanOptions& opts,
                    std::uint32_t metric, std::uint32_t level,
                    ScanResult& out) const {
  const archive::FramedFile file =
      archive::readSegmentFile(archive::kArchiveTrailer, seg.raw);
  const std::vector<std::uint8_t>& bytes = file.bytes;
  std::size_t framedBytes = file.framedBytes;
  const std::uint64_t footerOffset = file.footerOffset;
  std::size_t startOffset = 0;
  bool seeked = false;

  if (seg.raw.sealed) {
    // Meta frame (version) and footer frame (time range + checkpoint
    // index) are enough to prune and to seek; the body is only decoded
    // from the chosen start offset.
    const net::Frame metaFrame = [&] {
      net::FrameDecoder dec;
      dec.feed(bytes.data(), std::min<std::size_t>(framedBytes, 512));
      net::Frame f;
      if (!dec.next(f) || f.type != archive::kMetaRecord) {
        throw TsdbError("tsdb: " + seg.raw.path + ": first frame is not a "
                        "meta record");
      }
      return f;
    }();
    rpc::Decoder metaDec(metaFrame.payload);
    const archive::ArchiveMeta meta = archive::decodeMeta(metaDec);

    net::FrameDecoder footerDecoder;
    footerDecoder.feed(bytes.data() + footerOffset,
                       framedBytes - footerOffset);
    net::Frame footerFrame;
    if (footerDecoder.error() != net::FrameDecoder::Error::kNone ||
        !footerDecoder.next(footerFrame) ||
        footerFrame.type != archive::kFooterRecord) {
      throw TsdbError("tsdb: " + seg.raw.path + ": trailer does not point "
                      "at a footer record");
    }
    rpc::Decoder footerDec(footerFrame.payload);
    const archive::SegmentFooter footer =
        archive::decodeFooter(footerDec, meta.version);
    if (footer.recordCount == 0 ||
        rangeMisses(footer.firstNow, footer.lastNow, level, opts.from,
                    opts.to)) {
      ++out.segmentsSkipped;
      return;
    }
    // Raw resolution seeks to the last checkpoint written strictly
    // before `from`: every record ahead of that checkpoint has
    // now <= checkpoint.now < from, so nothing in range is skipped.
    // Rollups walk the whole segment — a bucket straddling `from`
    // must aggregate the records before it too.
    if (level == 0) {
      for (const archive::CheckpointIndexEntry& cp : footer.checkpoints) {
        if (cp.now < opts.from) {
          startOffset = static_cast<std::size_t>(cp.offset);
          seeked = true;
        }
      }
    }
    framedBytes = static_cast<std::size_t>(footerOffset);
    if (startOffset >= framedBytes) startOffset = 0;
  }

  ++out.rawScans;
  if (seeked && startOffset > 0) ++out.checkpointSeeks;

  net::FrameDecoder decoder;
  decoder.feed(bytes.data() + startOffset, framedBytes - startOffset);
  if (decoder.error() != net::FrameDecoder::Error::kNone) {
    throw TsdbError("tsdb: " + seg.raw.path + ": frame decode failed (" +
                    net::frameErrorName(decoder.error()) + ")");
  }
  std::vector<Bucket> segBuckets;
  std::vector<double> values;
  net::Frame frame;
  while (decoder.next(frame)) {
    if (frame.type != archive::kSampleRecord) continue;
    rpc::Decoder dec(frame.payload);
    const archive::SampleRecord rec = archive::decodeSample(dec);
    if (level == 0 && rec.now > opts.to) break;  // time is nondecreasing
    if (!archive::recordMetrics(rec, values)) continue;
    if (rec.node != opts.node || metric >= values.size()) continue;
    if (level == 0) {
      if (rec.now >= opts.from && rec.now <= opts.to) {
        out.points.push_back({rec.now, values[metric]});
      }
    } else {
      accumulateBucket(segBuckets, level, rec.now, values[metric]);
    }
  }
  // .open segments tolerate a torn tail (pendingBytes); decode errors
  // were already rejected above.
  if (level != 0) {
    std::vector<Bucket> inRange;
    for (const Bucket& b : segBuckets) {
      if (bucketIntersects(b, level, opts.from, opts.to)) {
        inRange.push_back(b);
      }
    }
    mergeBuckets(out.buckets, inRange);
  }
}

StoreStats Store::stats() const {
  StoreStats s;
  for (const Segment& seg : segments_) {
    ++s.segments;
    if (seg.raw.sealed) ++s.sealedSegments;
    if (seg.stale) ++s.staleCompactions;
    if (!seg.compacted) continue;
    ++s.compactedSegments;
    s.tsdbBytes += fileBytesOf(seg.tsdbPath);
    s.compactedPoints += seg.tsdbMeta.samplePoints;
    if (seg.tsdbMeta.samplePoints == 0) continue;
    if (s.firstNow == kNoTime) s.firstNow = seg.tsdbMeta.firstNow;
    s.lastNow = seg.tsdbMeta.lastNow;
  }
  return s;
}

TsdbVerifyResult verifyTsdb(const std::string& archiveDir) {
  TsdbVerifyResult out;
  const std::string tsdbDir = archiveDir + "/" + kTsdbSubdir;
  if (fileBytesOf(tsdbDir) < 0) return out;  // nothing compacted yet
  for (const archive::SegmentFile& file :
       archive::listSegments(tsdbDir, ".astd")) {
    if (!file.sealed) continue;
    const std::string& path = file.path;
    ++out.files;
    try {
      const archive::FramedFile sealed =
          archive::readSegmentFile(kTsdbTrailer, file);
      const std::uint64_t footerOffset = sealed.footerOffset;
      net::FrameDecoder decoder;
      decoder.feed(sealed.bytes.data(), sealed.framedBytes);
      if (decoder.error() != net::FrameDecoder::Error::kNone) {
        throw TsdbError("tsdb: " + path + ": frame decode failed (" +
                        net::frameErrorName(decoder.error()) + ")");
      }
      bool sawMeta = false;
      bool sawFooter = false;
      TsdbMeta meta;
      TsdbFooter footer;
      std::vector<ChunkIndexEntry> seen;
      std::int64_t rawPoints = 0;
      std::size_t offset = 0;
      net::Frame frame;
      while (decoder.next(frame)) {
        const std::size_t frameStart = offset;
        offset += net::kFrameHeaderBytes + frame.payload.size();
        if (sawFooter) {
          throw TsdbError("tsdb: " + path + ": frames after the footer");
        }
        rpc::Decoder dec(frame.payload);
        if (!sawMeta) {
          if (frame.type != kTsdbMetaRecord) {
            throw TsdbError("tsdb: " + path + ": first frame is not a "
                            "tsdb meta record");
          }
          meta = decodeTsdbMeta(dec);
          sawMeta = true;
        } else if (frame.type == kColumnChunkRecord) {
          ChunkIndexEntry e;
          std::vector<RawPoint> points;
          decodeColumnChunk(dec, e.node, e.metric, points);
          e.level = 0;
          e.offset = frameStart;
          e.count = static_cast<std::int64_t>(points.size());
          if (!points.empty()) {
            e.firstNow = points.front().t;
            e.lastNow = points.back().t;
          }
          rawPoints += e.count;
          seen.push_back(e);
        } else if (frame.type == kRollupChunkRecord) {
          ChunkIndexEntry e;
          std::vector<Bucket> buckets;
          decodeRollupChunk(dec, e.node, e.metric, e.level, buckets);
          e.offset = frameStart;
          e.count = static_cast<std::int64_t>(buckets.size());
          seen.push_back(e);
        } else if (frame.type == kTsdbFooterRecord) {
          if (frameStart != footerOffset) {
            throw TsdbError("tsdb: " + path + ": footer frame not at the "
                            "trailer's offset");
          }
          footer = decodeTsdbFooter(dec);
          sawFooter = true;
        } else {
          throw TsdbError("tsdb: " + path + ": unexpected record type " +
                          std::to_string(static_cast<int>(frame.type)));
        }
        if (!dec.exhausted()) {
          throw TsdbError("tsdb: " + path + ": record payload has "
                          "trailing bytes");
        }
      }
      if (!sawMeta || !sawFooter) {
        throw TsdbError("tsdb: " + path + ": missing meta or footer");
      }
      if (decoder.pendingBytes() != 0) {
        throw TsdbError("tsdb: " + path + ": unframed bytes");
      }
      if (footer.chunks.size() != seen.size()) {
        throw TsdbError("tsdb: " + path + ": footer indexes " +
                        std::to_string(footer.chunks.size()) +
                        " chunks but " + std::to_string(seen.size()) +
                        " are present");
      }
      for (std::size_t i = 0; i < seen.size(); ++i) {
        const ChunkIndexEntry& a = footer.chunks[i];
        const ChunkIndexEntry& b = seen[i];
        if (a.node != b.node || a.metric != b.metric ||
            a.level != b.level || a.offset != b.offset ||
            a.count != b.count) {
          throw TsdbError("tsdb: " + path + ": footer chunk " +
                          std::to_string(i) + " disagrees with the frame "
                          "present");
        }
      }
      if (footer.samplePoints != rawPoints ||
          meta.samplePoints != rawPoints) {
        throw TsdbError("tsdb: " + path + ": indexed point counts "
                        "disagree with the chunks present");
      }
      out.chunks += static_cast<std::int64_t>(seen.size());
    } catch (const std::exception& e) {
      out.ok = false;
      out.errors.push_back(e.what());
    }
  }
  return out;
}

}  // namespace asdf::tsdb
