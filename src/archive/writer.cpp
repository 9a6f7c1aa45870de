#include "archive/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

namespace asdf::archive {

ArchiveWriter::ArchiveWriter(ArchiveWriterOptions opts, ArchiveMeta meta)
    : opts_(std::move(opts)), meta_(std::move(meta)) {
  if (opts_.dir.empty()) {
    throw ArchiveError("archive: writer needs a directory");
  }
  ensureDir(opts_.dir);
  const std::vector<SegmentFile> existing = listSegments(opts_.dir, ".asar");
  nextIndex_ = existing.empty() ? 1 : existing.back().index + 1;
  std::lock_guard<std::mutex> lock(mutex_);
  openSegmentLocked();
}

ArchiveWriter::~ArchiveWriter() {
  try {
    close();
  } catch (const std::exception&) {
    // Destructor: the .open segment stays recoverable on disk.
  }
}

void ArchiveWriter::writeAllLocked(const std::uint8_t* data,
                                   std::size_t size) {
  writeAll(fd_, activePath_, data, size);
  segmentBytes_ += static_cast<std::int64_t>(size);
  bytesWritten_ += static_cast<std::int64_t>(size);
}

void ArchiveWriter::writeFrameLocked(net::MsgType type,
                                     const rpc::Encoder& enc) {
  const std::vector<std::uint8_t> frame = net::encodeFrame(type, enc);
  writeAllLocked(frame.data(), frame.size());
}

void ArchiveWriter::openSegmentLocked() {
  activePath_ =
      opts_.dir + "/" + segmentFileName(nextIndex_) + kOpenSuffix;
  fd_ = ::open(activePath_.c_str(),
               O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw ArchiveError("archive: open " + activePath_ + ": " +
                       errnoString());
  }
  segmentBytes_ = 0;
  segmentStartNow_ = kNoTime;
  footer_ = SegmentFooter{};
  rpc::Encoder enc;
  encodeMeta(enc, meta_);
  writeFrameLocked(kMetaRecord, enc);
}

void ArchiveWriter::sealSegmentLocked() {
  const std::uint64_t footerOffset =
      static_cast<std::uint64_t>(segmentBytes_);
  rpc::Encoder enc;
  encodeFooter(enc, footer_);
  writeFrameLocked(kFooterRecord, enc);
  const std::vector<std::uint8_t> trailer =
      encodeTrailer(kArchiveTrailer, footerOffset);
  writeAllLocked(trailer.data(), trailer.size());
  // Durability order: data + footer + trailer must be on disk before
  // the rename publishes the sealed name.
  const int fd = fd_;
  fd_ = -1;
  const std::string sealedPath =
      activePath_.substr(0, activePath_.size() - std::strlen(kOpenSuffix));
  publishFile(fd, activePath_, sealedPath, opts_.dir);
  const std::uint64_t sealedIndex = nextIndex_;
  ++segmentsSealed_;
  ++nextIndex_;
  // The sealed name is durable at this point — hand the segment to
  // whoever compacts (the hook must not reenter this writer).
  if (opts_.onSeal) opts_.onSeal(sealedPath, sealedIndex);
}

void ArchiveWriter::maybeRotateLocked(double now) {
  if (footer_.recordCount == 0) return;  // never seal an empty segment
  const bool bySize =
      segmentBytes_ >= static_cast<std::int64_t>(opts_.maxSegmentBytes);
  const bool byAge = segmentStartNow_ != kNoTime && now != kNoTime &&
                     now - segmentStartNow_ >= opts_.maxSegmentSeconds;
  if (!bySize && !byAge) return;
  sealSegmentLocked();
  openSegmentLocked();
}

void ArchiveWriter::writeSampleLocked(const rpc::CollectSample& sample,
                                      std::int64_t seq) {
  maybeRotateLocked(sample.now);
  rpc::Encoder enc;
  encodeSample(enc, sample, seq);
  writeFrameLocked(kSampleRecord, enc);
  if (footer_.recordCount == 0) {
    segmentStartNow_ = sample.now;
    footer_.firstNow = sample.now;
  }
  footer_.lastNow = sample.now;
  ++footer_.recordCount;
  ++footer_.kindCounts[static_cast<int>(sample.kind)];
  footer_.payloadBytes += static_cast<std::int64_t>(sample.payloadSize);
  ++recordsWritten_;

  // Checkpoint state rides on every written record (trim appends
  // included, which is why this lives here and not in onSample).
  StreamState& stream =
      streams_[{static_cast<int>(sample.kind), sample.node}];
  stream.kind = sample.kind;
  stream.node = sample.node;
  stream.nextSeq = seq + 1;
  stream.lastNow = sample.now;
  if (sample.kind == rpc::CollectKind::kSadc && sample.ok &&
      sample.payloadSize > 0) {
    lastSadc_[sample.node] = {
        sample.now, std::vector<std::uint8_t>(
                        sample.payload, sample.payload + sample.payloadSize)};
  }

  if (opts_.checkpointSeconds > 0 && sample.now != kNoTime) {
    if (lastCheckpointNow_ == kNoTime) {
      lastCheckpointNow_ = sample.now;  // cadence starts at first sample
    } else if (sample.now - lastCheckpointNow_ >= opts_.checkpointSeconds) {
      writeCheckpointLocked(sample.now);
      lastCheckpointNow_ = sample.now;
    }
  }
}

void ArchiveWriter::writeCheckpointLocked(double now) {
  CheckpointRecord cp;
  cp.now = now;
  cp.streams.reserve(streams_.size());
  for (const auto& [key, stream] : streams_) cp.streams.push_back(stream);
  for (const auto& [node, entry] : lastSadc_) {
    NodeState state;
    state.node = node;
    state.sampleNow = entry.first;
    if (flattenSadcPayload(entry.second, state.values)) {
      cp.nodes.push_back(std::move(state));
    }
  }
  const std::uint64_t offset = static_cast<std::uint64_t>(segmentBytes_);
  rpc::Encoder enc;
  encodeCheckpoint(enc, cp);
  writeFrameLocked(kCheckpointRecord, enc);
  footer_.checkpoints.push_back({now, offset});
}

void ArchiveWriter::onSample(const rpc::CollectSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  const std::int64_t seq =
      nextSeq_[{static_cast<int>(sample.kind), sample.node}]++;
  writeSampleLocked(sample, seq);
}

void ArchiveWriter::append(const SampleRecord& rec) {
  rpc::CollectSample sample;
  sample.kind = rec.kind;
  sample.node = rec.node;
  sample.now = rec.now;
  sample.watermark = rec.watermark;
  sample.attempts = rec.attempts;
  sample.ok = rec.ok;
  sample.payload = rec.payload.data();
  sample.payloadSize = rec.payload.size();

  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  writeSampleLocked(sample, rec.seq);  // original seq preserved
}

void ArchiveWriter::writeTruth(const TruthRecord& truth) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  rpc::Encoder enc;
  encodeTruth(enc, truth);
  writeFrameLocked(kTruthRecord, enc);
}

void ArchiveWriter::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  sealSegmentLocked();
}

void ArchiveWriter::abandonForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

long ArchiveWriter::recordsWritten() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recordsWritten_;
}

long ArchiveWriter::segmentsSealed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segmentsSealed_;
}

std::int64_t ArchiveWriter::bytesWritten() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytesWritten_;
}

std::int64_t ArchiveWriter::activeSegmentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segmentBytes_;
}

}  // namespace asdf::archive
