// Flight-recorder archive: format round-trips, writer/reader segment
// round-trips with rotation, crash recovery (a truncation sweep across
// every byte of the torn final record), single-bit-flip corruption
// detection on sealed segments, trimming, and restart numbering.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/reader.h"
#include "archive/writer.h"

namespace asdf::archive {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

ArchiveMeta testMeta() {
  ArchiveMeta meta;
  meta.seed = 99;
  meta.slaves = 3;
  meta.source = "sim";
  meta.duration = 120.0;
  meta.trainDuration = 60.0;
  meta.trainWarmup = 15.0;
  meta.centroids = 8;
  meta.faultType = 2;
  meta.faultNode = 2;
  meta.faultStart = 40.0;
  meta.faultEnd = 90.0;
  meta.mixChangeTime = -1.0;
  return meta;
}

rpc::CollectSample testSample(rpc::CollectKind kind, NodeId node, double now,
                              const std::vector<std::uint8_t>& payload) {
  rpc::CollectSample s;
  s.kind = kind;
  s.node = node;
  s.now = now;
  s.watermark = now;
  s.attempts = 1;
  s.ok = true;
  s.payload = payload.data();
  s.payloadSize = payload.size();
  return s;
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(ArchiveFormat, MetaSampleTruthFooterRoundTrip) {
  const ArchiveMeta meta = testMeta();
  rpc::Encoder enc;
  encodeMeta(enc, meta);
  rpc::Decoder dec(enc.bytes());
  const ArchiveMeta back = decodeMeta(dec);
  EXPECT_EQ(back.seed, meta.seed);
  EXPECT_EQ(back.slaves, meta.slaves);
  EXPECT_EQ(back.source, meta.source);
  EXPECT_EQ(back.duration, meta.duration);
  EXPECT_EQ(back.trainDuration, meta.trainDuration);
  EXPECT_EQ(back.trainWarmup, meta.trainWarmup);
  EXPECT_EQ(back.centroids, meta.centroids);
  EXPECT_EQ(back.faultType, meta.faultType);
  EXPECT_EQ(back.faultNode, meta.faultNode);
  EXPECT_EQ(back.faultStart, meta.faultStart);
  EXPECT_EQ(back.faultEnd, meta.faultEnd);
  EXPECT_EQ(back.mixChangeTime, meta.mixChangeTime);

  SampleRecord rec;
  rec.kind = rpc::CollectKind::kDn;
  rec.node = 7;
  rec.seq = 41;
  rec.now = 12.25;
  rec.watermark = 11.0;
  rec.attempts = 3;
  rec.ok = false;
  rec.payload = {1, 2, 3, 254, 255};
  rpc::Encoder senc;
  encodeSample(senc, rec);
  rpc::Decoder sdec(senc.bytes());
  const SampleRecord srt = decodeSample(sdec);
  EXPECT_EQ(srt.kind, rec.kind);
  EXPECT_EQ(srt.node, rec.node);
  EXPECT_EQ(srt.seq, rec.seq);
  EXPECT_EQ(srt.now, rec.now);
  EXPECT_EQ(srt.watermark, rec.watermark);
  EXPECT_EQ(srt.attempts, rec.attempts);
  EXPECT_EQ(srt.ok, rec.ok);
  EXPECT_EQ(srt.payload, rec.payload);

  TruthRecord truth;
  truth.slaveIndex = 1;
  truth.faultStart = 40.0;
  truth.faultEnd = 90.0;
  truth.simulatedSeconds = 120.0;
  truth.jobsSubmitted = 11;
  truth.jobsCompleted = 9;
  truth.tasksCompleted = 321;
  truth.tasksFailed = 4;
  truth.speculativeLaunches = 2;
  truth.syncDroppedSeconds = 1;
  rpc::Encoder tenc;
  encodeTruth(tenc, truth);
  rpc::Decoder tdec(tenc.bytes());
  const TruthRecord trt = decodeTruth(tdec);
  EXPECT_EQ(trt.slaveIndex, truth.slaveIndex);
  EXPECT_EQ(trt.jobsSubmitted, truth.jobsSubmitted);
  EXPECT_EQ(trt.syncDroppedSeconds, truth.syncDroppedSeconds);

  SegmentFooter footer;
  footer.recordCount = 5;
  footer.firstNow = 1.0;
  footer.lastNow = 5.0;
  footer.kindCounts = {2, 1, 1, 1};
  footer.payloadBytes = 123;
  footer.checkpoints.push_back({3.0, 4242});
  rpc::Encoder fenc;
  encodeFooter(fenc, footer);
  rpc::Decoder fdec(fenc.bytes());
  const SegmentFooter frt = decodeFooter(fdec, kFormatVersion);
  EXPECT_EQ(frt.recordCount, footer.recordCount);
  EXPECT_EQ(frt.kindCounts, footer.kindCounts);
  EXPECT_EQ(frt.payloadBytes, footer.payloadBytes);
  ASSERT_EQ(frt.checkpoints.size(), 1u);
  EXPECT_EQ(frt.checkpoints[0].now, 3.0);
  EXPECT_EQ(frt.checkpoints[0].offset, 4242u);
}

TEST(ArchiveFormat, TrailerRoundTripAndRejection) {
  const std::vector<std::uint8_t> trailer =
      encodeTrailer(kArchiveTrailer, 0x123456789AULL);
  ASSERT_EQ(trailer.size(), kTrailerBytes);
  std::uint64_t offset = 0;
  EXPECT_TRUE(decodeTrailer(kArchiveTrailer, trailer.data(), trailer.size(),
                            offset));
  EXPECT_EQ(offset, 0x123456789AULL);

  std::vector<std::uint8_t> bad = trailer;
  bad[0] ^= 0x01;  // magic
  EXPECT_FALSE(decodeTrailer(kArchiveTrailer, bad.data(), bad.size(), offset));
  EXPECT_FALSE(decodeTrailer(kArchiveTrailer, trailer.data(),
                             kTrailerBytes - 1, offset));
}

TEST(ArchiveDurability, WriterReaderRoundTripWithRotation) {
  TempDir dir("asdf-archive-roundtrip");
  ArchiveWriterOptions opts;
  opts.dir = dir.path;
  opts.maxSegmentBytes = 2048;  // force several rotations

  const std::vector<std::uint8_t> payload(100, 0xAB);
  long written = 0;
  {
    ArchiveWriter writer(opts, testMeta());
    for (int t = 0; t < 40; ++t) {
      for (NodeId node = 1; node <= 3; ++node) {
        writer.onSample(testSample(rpc::CollectKind::kSadc, node,
                                   static_cast<double>(t), payload));
        ++written;
      }
    }
    TruthRecord truth;
    truth.slaveIndex = 1;
    truth.simulatedSeconds = 40.0;
    writer.writeTruth(truth);
    writer.close();
    EXPECT_EQ(writer.recordsWritten(), written);
    EXPECT_GE(writer.segmentsSealed(), 3);
  }

  ArchiveReader reader(dir.path);
  EXPECT_EQ(reader.meta().seed, testMeta().seed);
  EXPECT_EQ(reader.meta().source, "sim");
  ASSERT_TRUE(reader.truth().has_value());
  EXPECT_EQ(reader.truth()->slaveIndex, 1);
  ASSERT_EQ(reader.records().size(), static_cast<std::size_t>(written));
  EXPECT_EQ(reader.tornTailBytes(), 0u);
  EXPECT_EQ(reader.firstNow(), 0.0);
  EXPECT_EQ(reader.lastNow(), 39.0);
  for (const SegmentInfo& seg : reader.segments()) {
    EXPECT_TRUE(seg.sealed) << seg.path;
  }
  // Per-stream sequence numbers are dense and ascending.
  std::map<NodeId, std::int64_t> nextSeq;
  for (const SampleRecord& rec : reader.records()) {
    EXPECT_EQ(rec.seq, nextSeq[rec.node]++);
    EXPECT_EQ(rec.payload.size(), payload.size());
  }
}

TEST(ArchiveDurability, WriterContinuesNumberingAcrossRestart) {
  TempDir dir("asdf-archive-restart");
  ArchiveWriterOptions opts;
  opts.dir = dir.path;
  const std::vector<std::uint8_t> payload(16, 0x42);
  {
    ArchiveWriter writer(opts, testMeta());
    writer.onSample(testSample(rpc::CollectKind::kSadc, 1, 0.0, payload));
    writer.close();
  }
  {
    ArchiveWriter writer(opts, testMeta());
    writer.onSample(testSample(rpc::CollectKind::kSadc, 1, 1.0, payload));
    writer.close();
  }
  ArchiveReader reader(dir.path);
  ASSERT_EQ(reader.segments().size(), 2u);
  EXPECT_EQ(reader.segments()[0].index, 1u);
  EXPECT_EQ(reader.segments()[1].index, 2u);
  ASSERT_EQ(reader.records().size(), 2u);
  // A restarted writer starts a fresh seq space; records stay ordered
  // by segment.
  EXPECT_EQ(reader.records()[0].now, 0.0);
  EXPECT_EQ(reader.records()[1].now, 1.0);
}

TEST(ArchiveDurability, CrashRecoveryTruncationSweep) {
  TempDir dir("asdf-archive-crash");
  ArchiveWriterOptions opts;
  opts.dir = dir.path;

  const std::vector<std::uint8_t> payload(48, 0x5A);
  std::int64_t offsetAfter4 = 0;
  std::int64_t offsetAfter5 = 0;
  {
    ArchiveWriter writer(opts, testMeta());
    for (int i = 0; i < 5; ++i) {
      writer.onSample(testSample(rpc::CollectKind::kTt, 1,
                                 static_cast<double>(i), payload));
      if (i == 3) offsetAfter4 = writer.activeSegmentBytes();
    }
    offsetAfter5 = writer.activeSegmentBytes();
    writer.abandonForTest();  // SIGKILL: no footer, no seal
  }
  ASSERT_GT(offsetAfter4, 0);
  ASSERT_GT(offsetAfter5, offsetAfter4);

  const std::string openPath =
      dir.path + "/" + segmentFileName(1) + kOpenSuffix;
  const std::vector<std::uint8_t> full = readFileBytes(openPath);
  ASSERT_EQ(full.size(), static_cast<std::size_t>(offsetAfter5));

  // Crash at every byte offset inside the final record: the committed
  // prefix (4 records) must load, with the torn tail reported.
  for (std::int64_t cut = offsetAfter4; cut <= offsetAfter5; ++cut) {
    writeFileBytes(openPath, std::vector<std::uint8_t>(
                                 full.begin(), full.begin() + cut));
    ArchiveReader reader(dir.path);
    const bool tornComplete = cut == offsetAfter5;
    ASSERT_EQ(reader.records().size(), tornComplete ? 5u : 4u)
        << "cut at byte " << cut;
    EXPECT_EQ(reader.tornTailBytes(),
              tornComplete ? 0u : static_cast<std::size_t>(cut - offsetAfter4))
        << "cut at byte " << cut;
    ASSERT_FALSE(reader.segments().empty());
    EXPECT_FALSE(reader.segments().back().sealed);
  }
}

TEST(ArchiveDurability, VerifyDetectsEveryBitFlip) {
  TempDir dir("asdf-archive-bitflip");
  ArchiveWriterOptions opts;
  opts.dir = dir.path;
  {
    ArchiveWriter writer(opts, testMeta());
    const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5, 4};
    writer.onSample(testSample(rpc::CollectKind::kSadc, 1, 0.0, payload));
    writer.onSample(testSample(rpc::CollectKind::kStrace, 2, 1.0, payload));
    TruthRecord truth;
    writer.writeTruth(truth);
    writer.close();
  }
  ASSERT_TRUE(ArchiveReader::verify(dir.path).ok);

  const std::string sealedPath = dir.path + "/" + segmentFileName(1);
  const std::vector<std::uint8_t> clean = readFileBytes(sealedPath);
  ASSERT_FALSE(clean.empty());

  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::vector<std::uint8_t> corrupt = clean;
    corrupt[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    writeFileBytes(sealedPath, corrupt);
    EXPECT_FALSE(ArchiveReader::verify(dir.path).ok)
        << "bit flip at byte " << i << " went undetected";
  }
  writeFileBytes(sealedPath, clean);
  EXPECT_TRUE(ArchiveReader::verify(dir.path).ok);
}

TEST(ArchiveDurability, TrimByTimeRange) {
  TempDir src("asdf-archive-trim-src");
  TempDir dst("asdf-archive-trim-dst");
  ArchiveWriterOptions opts;
  opts.dir = src.path;
  const std::vector<std::uint8_t> payload(24, 0x11);
  {
    ArchiveWriter writer(opts, testMeta());
    for (int t = 0; t < 10; ++t) {
      writer.onSample(testSample(rpc::CollectKind::kSadc, 1,
                                 static_cast<double>(t), payload));
    }
    TruthRecord truth;
    truth.slaveIndex = 1;
    writer.writeTruth(truth);
    writer.close();
  }

  EXPECT_EQ(trimArchive(src.path, dst.path, 3.0, 6.0), 4);

  ArchiveReader reader(dst.path);
  EXPECT_EQ(reader.meta().seed, testMeta().seed);
  ASSERT_TRUE(reader.truth().has_value());
  ASSERT_EQ(reader.records().size(), 4u);
  for (const SampleRecord& rec : reader.records()) {
    EXPECT_GE(rec.now, 3.0);
    EXPECT_LE(rec.now, 6.0);
  }
  // Trim preserves the original per-stream seq numbers (gap diagnosis
  // still works on the trimmed copy).
  EXPECT_EQ(reader.records().front().seq, 3);
}

TEST(ArchiveDurability, MissingDirectoryThrows) {
  EXPECT_THROW(ArchiveReader("/nonexistent/asdf-archive-missing"),
               ArchiveError);
  const ArchiveReader::VerifyResult result =
      ArchiveReader::verify("/nonexistent/asdf-archive-missing");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.errors.empty());
}

}  // namespace
}  // namespace asdf::archive
