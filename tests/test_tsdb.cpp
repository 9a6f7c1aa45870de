// Queryable time-series store (DESIGN.md §14): codec round trips,
// compaction against a live-written archive, and the central property:
// a Store::scan at raw resolution is bit-exact against extracting the
// same range from a full ArchiveReader replay, and rollup buckets
// equal recomputing min/max/mean/count from the raw points under the
// per-segment partial-sum merge the format defines — across random
// segment boundaries, interleaved checkpoints, a torn final segment,
// and every mix of compacted / uncompacted segments.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "archive/reader.h"
#include "archive/writer.h"
#include "common/rng.h"
#include "metrics/sadc.h"
#include "rpc/payloads.h"
#include "tsdb/compactor.h"
#include "tsdb/format.h"
#include "tsdb/store.h"

namespace asdf::tsdb {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

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

/// Deterministic, tick-varying metric value for (node, metric, tick).
double metricValue(NodeId node, std::uint32_t metric, long tick) {
  return static_cast<double>(node) * 1000.0 +
         static_cast<double>(metric) * 1.5 +
         0.001 * static_cast<double>((tick * 7 + metric) % 113);
}

/// A decodable sadc snapshot payload whose flattened vector is
/// metricValue(node, m, tick) at every index m.
std::vector<std::uint8_t> snapshotPayload(NodeId node, double now,
                                          long tick) {
  std::vector<double> nodeVec(metrics::kNodeMetricCount);
  std::vector<double> nicVec(metrics::kNicMetricCount);
  for (std::uint32_t m = 0; m < metrics::kNodeMetricCount; ++m) {
    nodeVec[m] = metricValue(node, m, tick);
  }
  for (std::uint32_t m = 0; m < metrics::kNicMetricCount; ++m) {
    nicVec[m] = metricValue(
        node, static_cast<std::uint32_t>(metrics::kNodeMetricCount) + m,
        tick);
  }
  rpc::Encoder enc;
  enc.putDouble(now);
  enc.putDoubleVector(nodeVec);
  enc.putDoubleVector(nicVec);
  enc.putU32(0);  // no per-process vectors
  return std::vector<std::uint8_t>(enc.bytes().begin(), enc.bytes().end());
}

archive::ArchiveMeta testMeta(int slaves) {
  archive::ArchiveMeta meta;
  meta.seed = 7;
  meta.slaves = slaves;
  meta.source = "sim";
  meta.duration = 200.0;
  return meta;
}

/// Writes `ticks` collection rounds (1 s apart, `nodes` sadc samples
/// each) through the ArchiveWriter. Small segments force rotation at
/// irregular record boundaries; checkpointSeconds interleaves
/// checkpoint frames. When `tear`, the final segment is abandoned
/// .open with a torn trailing record appended.
void writeArchive(const std::string& dir, int nodes, long ticks,
                  std::size_t segmentBytes, double checkpointSeconds,
                  bool tear) {
  archive::ArchiveWriterOptions opts;
  opts.dir = dir;
  opts.maxSegmentBytes = segmentBytes;
  opts.maxSegmentSeconds = 1.0e18;
  opts.checkpointSeconds = checkpointSeconds;
  archive::ArchiveWriter writer(opts, testMeta(nodes));
  for (long t = 0; t < ticks; ++t) {
    for (NodeId n = 1; n <= nodes; ++n) {
      const std::vector<std::uint8_t> payload =
          snapshotPayload(n, static_cast<double>(t), t);
      rpc::CollectSample s;
      s.kind = rpc::CollectKind::kSadc;
      s.node = n;
      s.now = static_cast<double>(t);
      s.watermark = s.now;
      s.attempts = 1;
      s.ok = true;
      s.payload = payload.data();
      s.payloadSize = payload.size();
      writer.onSample(s);
    }
  }
  if (tear) {
    writer.abandonForTest();
    // A torn tail: half a frame header dangling off the .open segment.
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string p = entry.path().string();
      if (p.size() > 5 && p.substr(p.size() - 5) == ".open") {
        std::ofstream out(p, std::ios::binary | std::ios::app);
        const char junk[7] = {0x41, 0x53, 0x44, 0x46, 0x00, 0x01, 0x00};
        out.write(junk, sizeof(junk));
      }
    }
  } else {
    writer.close();
  }
}

/// Reference raw extraction: full ArchiveReader load, every sadc
/// payload decoded, filtered to (node, metric index, [from, to]).
std::vector<RawPoint> refRawPoints(const archive::ArchiveReader& reader,
                                   NodeId node, std::uint32_t metric,
                                   double from, double to) {
  std::vector<RawPoint> out;
  for (const archive::SampleRecord& rec : reader.records()) {
    if (rec.kind != rpc::CollectKind::kSadc || !rec.ok ||
        rec.node != node || rec.now < from || rec.now > to) {
      continue;
    }
    rpc::Decoder dec(rec.payload);
    const metrics::SadcSnapshot snap = rpc::decodeSnapshot(dec);
    const std::vector<double> values = metrics::flattenNodeVector(snap);
    out.push_back({rec.now, values[metric]});
  }
  return out;
}

/// Reference rollup: per-segment accumulation merged in segment order
/// — the format's definition, mirrored independently of the store.
std::vector<Bucket> refBuckets(const archive::ArchiveReader& reader,
                               NodeId node, std::uint32_t metric,
                               std::uint32_t level, double from, double to) {
  std::vector<Bucket> merged;
  std::size_t cursor = 0;
  for (const archive::SegmentInfo& seg : reader.segments()) {
    std::vector<Bucket> segBuckets;
    for (std::size_t i = 0; i < static_cast<std::size_t>(seg.records);
         ++i) {
      const archive::SampleRecord& rec = reader.records()[cursor + i];
      if (rec.kind != rpc::CollectKind::kSadc || !rec.ok ||
          rec.node != node) {
        continue;
      }
      rpc::Decoder dec(rec.payload);
      const metrics::SadcSnapshot snap = rpc::decodeSnapshot(dec);
      const std::vector<double> values = metrics::flattenNodeVector(snap);
      accumulateBucket(segBuckets, level, rec.now, values[metric]);
    }
    cursor += static_cast<std::size_t>(seg.records);
    std::vector<Bucket> inRange;
    for (const Bucket& b : segBuckets) {
      const double start = b.startTime(level);
      if (start <= to && start + static_cast<double>(level) > from) {
        inRange.push_back(b);
      }
    }
    mergeBuckets(merged, inRange);
  }
  return merged;
}

void expectPointsBitExact(const std::vector<RawPoint>& got,
                          const std::vector<RawPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint64_t gb, wb;
    std::memcpy(&gb, &got[i].v, 8);
    std::memcpy(&wb, &want[i].v, 8);
    EXPECT_EQ(got[i].t, want[i].t) << "point " << i;
    EXPECT_EQ(gb, wb) << "point " << i << " value bits";
  }
}

void expectBucketsBitExact(const std::vector<Bucket>& got,
                           const std::vector<Bucket>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "bucket " << i;
    EXPECT_EQ(got[i].min, want[i].min) << "bucket " << i;
    EXPECT_EQ(got[i].max, want[i].max) << "bucket " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "bucket " << i;
    std::uint64_t gb, wb;
    std::memcpy(&gb, &got[i].sum, 8);
    std::memcpy(&wb, &want[i].sum, 8);
    EXPECT_EQ(gb, wb) << "bucket " << i << " sum bits";
  }
}

TEST(TsdbFormat, VarintRoundTrip) {
  std::vector<std::uint8_t> buf;
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 300, (1ULL << 32) - 1, 1ULL << 32,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) putVarU64(buf, v);
  std::size_t pos = 0;
  for (std::uint64_t v : values) {
    EXPECT_EQ(getVarU64(buf.data(), buf.size(), pos), v);
  }
  EXPECT_EQ(pos, buf.size());
  // Truncated varint throws instead of reading past the blob.
  std::vector<std::uint8_t> torn = {0x80, 0x80};
  std::size_t tpos = 0;
  EXPECT_THROW(getVarU64(torn.data(), torn.size(), tpos), TsdbError);
}

TEST(TsdbFormat, ZigzagRoundTrip) {
  for (std::int64_t v : {std::int64_t(0), std::int64_t(1), std::int64_t(-1),
                         std::int64_t(123456), std::int64_t(-123456),
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
}

TEST(TsdbFormat, DoubleColumnBitExact) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                1.0000000001,
                                -3.25e9,
                                5e-324,  // min denormal
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                3.141592653589793};
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.uniform(-1e6, 1e6));
  }
  std::vector<std::uint8_t> buf;
  encodeDoubleColumn(buf, values);
  std::size_t pos = 0;
  const std::vector<double> back =
      decodeDoubleColumn(buf.data(), buf.size(), pos, values.size());
  ASSERT_EQ(pos, buf.size());
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t a, b;
    std::memcpy(&a, &values[i], 8);
    std::memcpy(&b, &back[i], 8);
    EXPECT_EQ(a, b) << "index " << i;
  }
}

TEST(TsdbFormat, ChunkAndFooterRoundTrip) {
  std::vector<RawPoint> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({static_cast<double>(i), 100.0 + 0.25 * i});
  }
  rpc::Encoder enc;
  encodeColumnChunk(enc, 3, 17, points);
  rpc::Decoder dec(enc.bytes());
  NodeId node = 0;
  std::uint32_t metric = 0;
  std::vector<RawPoint> back;
  decodeColumnChunk(dec, node, metric, back);
  EXPECT_TRUE(dec.exhausted());
  EXPECT_EQ(node, 3);
  EXPECT_EQ(metric, 17u);
  expectPointsBitExact(back, points);

  std::vector<Bucket> buckets;
  for (const RawPoint& p : points) accumulateBucket(buckets, 10, p.t, p.v);
  rpc::Encoder renc;
  encodeRollupChunk(renc, 3, 17, 10, buckets);
  rpc::Decoder rdec(renc.bytes());
  std::uint32_t level = 0;
  std::vector<Bucket> bback;
  decodeRollupChunk(rdec, node, metric, level, bback);
  EXPECT_TRUE(rdec.exhausted());
  EXPECT_EQ(level, 10u);
  expectBucketsBitExact(bback, buckets);

  TsdbFooter footer;
  footer.firstNow = 0.0;
  footer.lastNow = 39.0;
  footer.samplePoints = 40;
  footer.chunks.push_back({3, 17, 0, 16, 40, 0.0, 39.0});
  footer.chunks.push_back({3, 17, 10, 480, 4, 0.0, 39.0});
  rpc::Encoder fenc;
  encodeTsdbFooter(fenc, footer);
  rpc::Decoder fdec(fenc.bytes());
  const TsdbFooter fback = decodeTsdbFooter(fdec);
  ASSERT_EQ(fback.chunks.size(), 2u);
  EXPECT_EQ(fback.chunks[1].level, 10u);
  EXPECT_EQ(fback.chunks[1].offset, 480u);

  const std::vector<std::uint8_t> trailer =
      archive::encodeTrailer(kTsdbTrailer, 4242);
  std::uint64_t off = 0;
  ASSERT_TRUE(archive::decodeTrailer(kTsdbTrailer, trailer.data(),
                                     trailer.size(), off));
  EXPECT_EQ(off, 4242u);
  std::vector<std::uint8_t> flipped = trailer;
  flipped[0] ^= 0x01;
  EXPECT_FALSE(archive::decodeTrailer(kTsdbTrailer, flipped.data(),
                                      flipped.size(), off));
}

TEST(TsdbFormat, BucketMergeSemantics) {
  // Two segment-partial series sharing boundary bucket 2: min/max/count
  // combine, sums add left to right.
  std::vector<Bucket> a, b;
  accumulateBucket(a, 10, 21.0, 5.0);
  accumulateBucket(a, 10, 25.0, 1.0);
  accumulateBucket(b, 10, 27.0, 9.0);
  accumulateBucket(b, 10, 31.0, 2.0);
  std::vector<Bucket> merged;
  mergeBuckets(merged, a);
  mergeBuckets(merged, b);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].index, 2);
  EXPECT_EQ(merged[0].min, 1.0);
  EXPECT_EQ(merged[0].max, 9.0);
  EXPECT_EQ(merged[0].count, 3);
  EXPECT_EQ(merged[0].sum, (5.0 + 1.0) + 9.0);
  EXPECT_EQ(merged[0].mean(), ((5.0 + 1.0) + 9.0) / 3.0);
  EXPECT_EQ(merged[1].index, 3);
  // Out-of-order accumulation is a format violation, not a silent
  // mis-bucketing.
  std::vector<Bucket> c;
  accumulateBucket(c, 10, 50.0, 1.0);
  EXPECT_THROW(accumulateBucket(c, 10, 9.0, 1.0), TsdbError);
}

TEST(TsdbCheckpoint, WriterEmitsReaderValidates) {
  TempDir dir("asdf-tsdb-checkpoint");
  writeArchive(dir.path, 2, 30, 1 << 20, 5.0, /*tear=*/false);
  archive::ArchiveReader reader(dir.path);
  std::int64_t checkpoints = 0;
  for (const archive::SegmentInfo& seg : reader.segments()) {
    checkpoints += seg.checkpoints;
    EXPECT_EQ(seg.version, archive::kFormatVersion);
  }
  // 30 ticks at a 5 s cadence (first tick starts the clock): >= 4.
  EXPECT_GE(checkpoints, 4);
  const archive::ArchiveReader::VerifyResult vr =
      archive::ArchiveReader::verify(dir.path);
  EXPECT_TRUE(vr.ok);
  ASSERT_FALSE(vr.segments.empty());
  EXPECT_EQ(vr.segments.front().records, reader.segments().front().records);
}

TEST(TsdbCheckpoint, RecordRoundTrip) {
  archive::CheckpointRecord cp;
  cp.now = 42.0;
  cp.streams.push_back({rpc::CollectKind::kSadc, 3, 17, 41.5});
  archive::NodeState ns;
  ns.node = 3;
  ns.sampleNow = 41.5;
  ns.values = {1.0, 2.5, -3.0};
  cp.nodes.push_back(ns);
  rpc::Encoder enc;
  archive::encodeCheckpoint(enc, cp);
  rpc::Decoder dec(enc.bytes());
  const archive::CheckpointRecord back = archive::decodeCheckpoint(dec);
  EXPECT_TRUE(dec.exhausted());
  EXPECT_EQ(back.now, 42.0);
  ASSERT_EQ(back.streams.size(), 1u);
  EXPECT_EQ(back.streams[0].kind, rpc::CollectKind::kSadc);
  EXPECT_EQ(back.streams[0].nextSeq, 17);
  ASSERT_EQ(back.nodes.size(), 1u);
  EXPECT_EQ(back.nodes[0].values, ns.values);
}

// The central property test. One archive, written live with rotation
// mid-stream, checkpoints every 5 ticks, and a torn .open tail; then
// compared in three states: uncompacted, fully compacted, and
// compacted with the raw bytes proven untouched.
TEST(TsdbProperty, ScanMatchesReplayExtraction) {
  TempDir dir("asdf-tsdb-property");
  const int nodes = 3;
  const long ticks = 120;
  writeArchive(dir.path, nodes, ticks, 6000, 5.0, /*tear=*/true);

  archive::ArchiveReader reader(dir.path);
  ASSERT_GT(reader.segments().size(), 3u);  // rotation really happened
  ASSERT_FALSE(reader.segments().back().sealed);  // torn tail present

  // Raw segment bytes before compaction.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> before;
  for (const archive::SegmentInfo& seg : reader.segments()) {
    before.emplace_back(seg.path, readFileBytes(seg.path));
  }

  Rng rng(12345);
  const auto checkAll = [&](const Store& store) {
    for (int trial = 0; trial < 25; ++trial) {
      const NodeId node = static_cast<NodeId>(rng.uniformInt(1, nodes));
      const std::uint32_t metric = static_cast<std::uint32_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(metrics::kFlatNodeVectorSize) - 1));
      double from = rng.uniform(-5.0, static_cast<double>(ticks));
      double to = from + rng.uniform(0.0, 60.0);
      const std::string name = metricNames()[metric];

      ScanOptions opts;
      opts.node = node;
      opts.metric = name;
      opts.from = from;
      opts.to = to;
      opts.resolution = Resolution::kRaw;
      const ScanResult raw = store.scan(opts);
      expectPointsBitExact(raw.points,
                           refRawPoints(reader, node, metric, from, to));

      for (const Resolution res :
           {Resolution::k10s, Resolution::k1m, Resolution::k10m}) {
        opts.resolution = res;
        const ScanResult rolled = store.scan(opts);
        expectBucketsBitExact(
            rolled.buckets,
            refBuckets(reader, node, metric,
                       static_cast<std::uint32_t>(res), from, to));
      }
    }
  };

  {
    SCOPED_TRACE("uncompacted (raw fallback on every segment)");
    const Store store(dir.path);
    checkAll(store);
    const ScanResult r = store.scan(
        {1, "cpu_user_pct", 0.0, static_cast<double>(ticks), Resolution::kRaw});
    EXPECT_EQ(r.compactedScans, 0);
    EXPECT_GT(r.rawScans, 0);
  }

  const std::vector<CompactResult> results = compactArchive(dir.path);
  ASSERT_EQ(results.size(), reader.segments().size() - 1);  // .open skipped
  for (const CompactResult& r : results) EXPECT_FALSE(r.skipped);

  {
    SCOPED_TRACE("fully compacted (torn .open still raw)");
    const Store store(dir.path);
    checkAll(store);
    const ScanResult r = store.scan(
        {1, "cpu_user_pct", 0.0, static_cast<double>(ticks), Resolution::kRaw});
    EXPECT_GT(r.compactedScans, 0);
    EXPECT_EQ(r.rawScans, 1);  // exactly the torn .open segment
  }

  // Compaction never rewrote a raw byte: replay stays byte-identical.
  for (const auto& [path, bytes] : before) {
    EXPECT_EQ(readFileBytes(path), bytes) << path;
  }

  // A second pass skips everything (already up to date).
  for (const CompactResult& r : compactArchive(dir.path)) {
    EXPECT_TRUE(r.skipped);
  }

  const TsdbVerifyResult tv = verifyTsdb(dir.path);
  EXPECT_TRUE(tv.ok);
  EXPECT_EQ(tv.files, static_cast<std::int64_t>(results.size()));
}

TEST(TsdbStore, CheckpointSeekSkipsNothing) {
  TempDir dir("asdf-tsdb-seek");
  // One big sealed segment with checkpoints every 5 ticks: a late
  // narrow window must seek (not walk from record zero) and still
  // return exactly the replay extraction.
  writeArchive(dir.path, 2, 200, 64 << 20, 5.0, /*tear=*/false);
  archive::ArchiveReader reader(dir.path);
  ASSERT_EQ(reader.segments().size(), 1u);
  ASSERT_GT(reader.segments()[0].checkpoints, 10);

  const Store store(dir.path);
  ScanOptions opts;
  opts.node = 2;
  opts.metric = "cpu_user_pct";
  opts.from = 150.0;
  opts.to = 160.0;
  opts.resolution = Resolution::kRaw;
  const ScanResult r = store.scan(opts);
  EXPECT_EQ(r.checkpointSeeks, 1);
  expectPointsBitExact(r.points,
                       refRawPoints(reader, 2, 0, opts.from, opts.to));
}

TEST(TsdbStore, BackgroundCompactorKeepsUpWithSealing) {
  TempDir dir("asdf-tsdb-background");
  {
    BackgroundCompactor compactor(dir.path);
    archive::ArchiveWriterOptions opts;
    opts.dir = dir.path;
    opts.maxSegmentBytes = 6000;
    opts.maxSegmentSeconds = 1.0e18;
    opts.onSeal = [&compactor](const std::string& path,
                               std::uint64_t index) {
      compactor.enqueue(path, index);
    };
    archive::ArchiveWriter writer(opts, testMeta(2));
    for (long t = 0; t < 60; ++t) {
      for (NodeId n = 1; n <= 2; ++n) {
        const std::vector<std::uint8_t> payload =
            snapshotPayload(n, static_cast<double>(t), t);
        rpc::CollectSample s;
        s.kind = rpc::CollectKind::kSadc;
        s.node = n;
        s.now = static_cast<double>(t);
        s.watermark = s.now;
        s.ok = true;
        s.payload = payload.data();
        s.payloadSize = payload.size();
        writer.onSample(s);
      }
    }
    writer.close();
    compactor.drain();
    EXPECT_EQ(compactor.compacted(), writer.segmentsSealed());
    EXPECT_EQ(compactor.failed(), 0);
  }
  // Every sealed segment is now served from its compacted chunk.
  archive::ArchiveReader reader(dir.path);
  const Store store(dir.path);
  const ScanResult r =
      store.scan({1, "cpu_user_pct", 0.0, 60.0, Resolution::kRaw});
  EXPECT_EQ(r.rawScans, 0);
  EXPECT_GT(r.compactedScans, 0);
  expectPointsBitExact(r.points, refRawPoints(reader, 1, 0, 0.0, 60.0));
}

TEST(TsdbStore, PartialCompactionFallsBackToRaw) {
  TempDir dir("asdf-tsdb-partial");
  writeArchive(dir.path, 2, 40, 6000, 0.0, /*tear=*/false);
  compactArchive(dir.path);
  archive::ArchiveReader reader(dir.path);
  // Drop one segment's .astd: the store must serve that segment from
  // the raw walk and the rest from chunks, with identical results.
  const std::string astd = dir.path + "/" + std::string(kTsdbSubdir) + "/" +
                           tsdbFileName(reader.segments().front().index);
  ASSERT_TRUE(fs::remove(astd));
  const Store store(dir.path);
  const ScanResult r =
      store.scan({1, "cpu_user_pct", 0.0, 40.0, Resolution::kRaw});
  EXPECT_EQ(r.rawScans, 1);
  EXPECT_GT(r.compactedScans, 0);
  expectPointsBitExact(r.points, refRawPoints(reader, 1, 0, 0.0, 40.0));
}

TEST(TsdbVerify, FlippedBitsFailVerify) {
  TempDir dir("asdf-tsdb-bitflip");
  writeArchive(dir.path, 1, 30, 1 << 20, 0.0, /*tear=*/false);
  compactArchive(dir.path);
  archive::ArchiveReader reader(dir.path);
  const std::string astd = dir.path + "/" + std::string(kTsdbSubdir) + "/" +
                           tsdbFileName(reader.segments().front().index);
  const std::vector<std::uint8_t> clean = readFileBytes(astd);
  ASSERT_FALSE(clean.empty());
  ASSERT_TRUE(verifyTsdb(dir.path).ok);
  // Single-bit flips across the file (every 97th byte keeps the sweep
  // fast while covering meta, chunks, footer, and trailer regions).
  for (std::size_t i = 0; i < clean.size();
       i += (i + 97 < clean.size() ? 97 : 1)) {
    std::vector<std::uint8_t> mutated = clean;
    mutated[i] ^= 0x10;
    writeFileBytes(astd, mutated);
    EXPECT_FALSE(verifyTsdb(dir.path).ok) << "flip at byte " << i;
  }
  writeFileBytes(astd, clean);
  EXPECT_TRUE(verifyTsdb(dir.path).ok);
}

TEST(TsdbStore, CompactRebuildsDamagedTrailer) {
  TempDir dir("asdf-tsdb-damaged-trailer");
  writeArchive(dir.path, 1, 30, 1 << 20, 0.0, /*tear=*/false);
  compactArchive(dir.path);
  archive::ArchiveReader reader(dir.path);
  const std::string astd = dir.path + "/" + std::string(kTsdbSubdir) + "/" +
                           tsdbFileName(reader.segments().front().index);
  std::vector<std::uint8_t> damaged = readFileBytes(astd);
  ASSERT_GT(damaged.size(), kTsdbTrailerBytes);
  damaged[damaged.size() - kTsdbTrailerBytes] ^= 0x01;  // trailer magic
  writeFileBytes(astd, damaged);
  ASSERT_FALSE(verifyTsdb(dir.path).ok);

  // The up-to-date check opens the file the way the store does, so a
  // damaged trailer is rebuilt rather than skipped.
  const std::vector<CompactResult> results = compactArchive(dir.path);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results.front().skipped);
  EXPECT_TRUE(verifyTsdb(dir.path).ok);
  const Store store(dir.path);
  const ScanResult r =
      store.scan({1, "cpu_user_pct", 0.0, 30.0, Resolution::kRaw});
  EXPECT_EQ(r.compactedScans, 1);
  expectPointsBitExact(r.points, refRawPoints(reader, 1, 0, 0.0, 30.0));
}

TEST(TsdbStore, CompactRejectsSegmentThatFailsVerify) {
  TempDir dir("asdf-tsdb-unknown-record");
  writeArchive(dir.path, 1, 10, 1 << 20, 0.0, /*tear=*/false);
  const std::string seg =
      archive::ArchiveReader(dir.path).segments().front().path;
  // Rebuild the sealed segment with one CRC-valid frame of an unknown
  // record type just before the footer, and re-point the trailer.
  const std::vector<std::uint8_t> clean = readFileBytes(seg);
  const std::size_t trailerBytes = archive::kTrailerBytes;
  std::uint64_t footerOffset = 0;
  ASSERT_TRUE(archive::decodeTrailer(archive::kArchiveTrailer,
                                     clean.data() + clean.size() -
                                         trailerBytes,
                                     trailerBytes, footerOffset));
  rpc::Encoder enc;
  enc.putU32(7);
  const std::vector<std::uint8_t> stray =
      net::encodeFrame(static_cast<net::MsgType>(0x45), enc);
  std::vector<std::uint8_t> rebuilt(clean.begin(),
                                    clean.begin() + footerOffset);
  rebuilt.insert(rebuilt.end(), stray.begin(), stray.end());
  rebuilt.insert(rebuilt.end(), clean.begin() + footerOffset,
                 clean.end() - trailerBytes);
  const std::vector<std::uint8_t> trailer = archive::encodeTrailer(
      archive::kArchiveTrailer, footerOffset + stray.size());
  rebuilt.insert(rebuilt.end(), trailer.begin(), trailer.end());
  writeFileBytes(seg, rebuilt);

  EXPECT_FALSE(archive::ArchiveReader::verify(dir.path).ok);
  EXPECT_THROW(compactArchive(dir.path), archive::ArchiveError);
}

TEST(TsdbStore, UnknownMetricAndResolutionAreErrors) {
  TempDir dir("asdf-tsdb-errors");
  writeArchive(dir.path, 1, 5, 1 << 20, 0.0, /*tear=*/false);
  const Store store(dir.path);
  EXPECT_THROW(store.scan({1, "not_a_metric", 0.0, 5.0, Resolution::kRaw}),
               TsdbError);
  EXPECT_THROW(store.scan({1, "cpu_user_pct", 5.0, 0.0, Resolution::kRaw}),
               TsdbError);
  EXPECT_THROW(resolutionFromName("2h"), TsdbError);
  EXPECT_EQ(resolutionFromName("10s"), Resolution::k10s);
  EXPECT_STREQ(resolutionName(Resolution::k1m), "1m");
}

}  // namespace
}  // namespace asdf::tsdb
