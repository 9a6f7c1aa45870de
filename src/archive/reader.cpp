#include "archive/reader.h"

#include <iterator>

#include "archive/writer.h"

namespace asdf::archive {

SegmentContents readSegment(const SegmentFile& file) {
  const std::string& path = file.path;
  const FramedFile bytes = readSegmentFile(kArchiveTrailer, file);
  SegmentContents out;
  SegmentInfo& info = out.info;
  info.path = path;
  info.index = file.index;
  info.sealed = file.sealed;
  info.fileBytes = static_cast<std::int64_t>(bytes.bytes.size());

  net::FrameDecoder decoder;
  decoder.feed(bytes.bytes.data(), bytes.framedBytes);
  if (decoder.error() != net::FrameDecoder::Error::kNone) {
    throw ArchiveError("archive: " + path + ": frame decode failed (" +
                       net::frameErrorName(decoder.error()) + ")");
  }

  bool sawMeta = false;
  bool sawFooter = false;
  SegmentFooter footer;
  SegmentFooter counted;
  std::vector<CheckpointIndexEntry> checkpointsSeen;
  std::size_t offset = 0;  // file offset of the frame being decoded
  net::Frame frame;
  while (decoder.next(frame)) {
    const std::size_t frameStart = offset;
    offset += net::kFrameHeaderBytes + frame.payload.size();
    if (sawFooter) {
      throw ArchiveError("archive: " + path + ": frames after the footer");
    }
    rpc::Decoder dec(frame.payload);
    if (!sawMeta) {
      if (frame.type != kMetaRecord) {
        throw ArchiveError("archive: " + path + ": first frame is not a "
                           "meta record");
      }
      out.meta = decodeMeta(dec);
      sawMeta = true;
    } else if (frame.type == kSampleRecord) {
      SampleRecord rec = decodeSample(dec);
      if (counted.recordCount == 0) counted.firstNow = rec.now;
      counted.lastNow = rec.now;
      ++counted.recordCount;
      ++counted.kindCounts[static_cast<int>(rec.kind)];
      counted.payloadBytes += static_cast<std::int64_t>(rec.payload.size());
      out.records.push_back(std::move(rec));
    } else if (frame.type == kTruthRecord) {
      out.truth = decodeTruth(dec);
    } else if (frame.type == kCheckpointRecord) {
      if (out.meta.version < 2) {
        throw ArchiveError("archive: " + path + ": checkpoint record in a "
                           "v1 segment");
      }
      const CheckpointRecord cp = decodeCheckpoint(dec);
      checkpointsSeen.push_back(
          {cp.now, static_cast<std::uint64_t>(frameStart)});
    } else if (frame.type == kFooterRecord) {
      if (file.sealed && frameStart != bytes.footerOffset) {
        throw ArchiveError("archive: " + path + ": footer frame not at "
                           "the trailer's offset");
      }
      footer = decodeFooter(dec, out.meta.version);
      sawFooter = true;
    } else if (frame.type == kMetaRecord) {
      throw ArchiveError("archive: " + path + ": duplicate meta record");
    } else {
      throw ArchiveError("archive: " + path + ": unexpected record type " +
                         std::to_string(static_cast<int>(frame.type)));
    }
    if (!dec.exhausted()) {
      throw ArchiveError("archive: " + path + ": record payload has "
                         "trailing bytes");
    }
  }

  if (!sawMeta) {
    throw ArchiveError("archive: " + path + ": no meta record");
  }
  if (file.sealed) {
    if (!sawFooter) {
      throw ArchiveError("archive: " + path + ": sealed segment has no "
                         "footer frame");
    }
    if (decoder.pendingBytes() != 0) {
      throw ArchiveError("archive: " + path + ": sealed segment has " +
                         std::to_string(decoder.pendingBytes()) +
                         " unframed bytes");
    }
    if (footer.recordCount != counted.recordCount ||
        footer.kindCounts != counted.kindCounts ||
        footer.payloadBytes != counted.payloadBytes ||
        (footer.recordCount > 0 && (footer.firstNow != counted.firstNow ||
                                    footer.lastNow != counted.lastNow))) {
      throw ArchiveError("archive: " + path + ": footer index disagrees "
                         "with the records present");
    }
    // The checkpoint index must locate exactly the checkpoint frames
    // present — a stale offset would send a seeking reader into the
    // middle of some other record.
    if (footer.checkpoints.size() != checkpointsSeen.size()) {
      throw ArchiveError("archive: " + path + ": footer checkpoint index "
                         "disagrees with the checkpoints present");
    }
    for (std::size_t i = 0; i < checkpointsSeen.size(); ++i) {
      if (footer.checkpoints[i].now != checkpointsSeen[i].now ||
          footer.checkpoints[i].offset != checkpointsSeen[i].offset) {
        throw ArchiveError("archive: " + path + ": footer checkpoint " +
                           std::to_string(i) + " offset/time mismatch");
      }
    }
  } else {
    // A footer here means a crash between footer write and rename: the
    // segment is complete in content, only the sealed name is missing.
    info.tornTailBytes = decoder.pendingBytes();
  }

  info.version = out.meta.version;
  info.records = counted.recordCount;
  info.checkpoints = static_cast<std::int64_t>(checkpointsSeen.size());
  info.firstNow = counted.firstNow;
  info.lastNow = counted.lastNow;
  return out;
}

ArchiveReader::ArchiveReader(const std::string& dir) {
  const std::vector<SegmentFile> files = listSegments(dir, ".asar");
  if (files.empty()) {
    throw ArchiveError("archive: no segments in " + dir);
  }
  for (const SegmentFile& file : files) {
    SegmentContents seg = readSegment(file);
    // Segments written by later sessions in the same directory carry
    // their own meta; the archive's parameters come from the first.
    if (segments_.empty()) meta_ = seg.meta;
    if (seg.truth.has_value()) truth_ = seg.truth;
    records_.insert(records_.end(),
                    std::make_move_iterator(seg.records.begin()),
                    std::make_move_iterator(seg.records.end()));
    segments_.push_back(std::move(seg.info));
  }
}

double ArchiveReader::firstNow() const {
  for (const SegmentInfo& s : segments_) {
    if (s.records > 0) return s.firstNow;
  }
  return kNoTime;
}

double ArchiveReader::lastNow() const {
  double last = kNoTime;
  for (const SegmentInfo& s : segments_) {
    if (s.records > 0) last = s.lastNow;
  }
  return last;
}

std::size_t ArchiveReader::tornTailBytes() const {
  std::size_t total = 0;
  for (const SegmentInfo& s : segments_) total += s.tornTailBytes;
  return total;
}

ArchiveReader::VerifyResult ArchiveReader::verify(const std::string& dir) {
  VerifyResult out;
  try {
    const ArchiveReader reader(dir);
    out.ok = true;
    out.recordsVerified = static_cast<std::int64_t>(reader.records().size());
    out.tornTailBytes = reader.tornTailBytes();
    out.segments = reader.segments();
  } catch (const std::exception& e) {
    out.ok = false;
    out.errors.push_back(e.what());
  }
  return out;
}

std::int64_t trimArchive(const std::string& srcDir, const std::string& dstDir,
                         double fromTime, double toTime) {
  const ArchiveReader reader(srcDir);
  ArchiveWriterOptions opts;
  opts.dir = dstDir;
  ArchiveWriter writer(opts, reader.meta());
  std::int64_t kept = 0;
  for (const SampleRecord& rec : reader.records()) {
    if (rec.now < fromTime || rec.now > toTime) continue;
    writer.append(rec);
    ++kept;
  }
  if (reader.truth().has_value()) writer.writeTruth(*reader.truth());
  writer.close();
  return kept;
}

}  // namespace asdf::archive
