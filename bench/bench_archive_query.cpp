// Query-path speed: tsdb::Store scan of one (node, metric, window)
// against the only alternative the archive had before compaction — a
// full ArchiveReader load that decodes every snapshot to extract the
// same series. The Store is constructed cold for every timed scan, so
// the measured cost includes listing the directory and loading every
// compacted footer index, not just the chunk pread.
//
// Usage:
//   bench_archive_query [--records=30000] [--nodes=16]
//                       [--segment-bytes=1048576] [--window=30]
//                       [--min-speedup=0]
//                       [--json=bench/baselines/archive_query.json]
//
// --min-speedup gates the raw-window scan: exit 1 when cold scan is
// not at least that many times faster than the full replay extraction.
// check_bench_regression ignores the speedup/_wall_s fields by
// default; the deterministic fields (counts, match flags) are pinned
// with --exact in CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "archive/reader.h"
#include "archive/writer.h"
#include "bench_util.h"
#include "metrics/catalog.h"
#include "metrics/sadc.h"
#include "rpc/payloads.h"
#include "rpc/wire.h"
#include "tsdb/compactor.h"
#include "tsdb/store.h"

namespace {

using namespace asdf;

// One decodable sadc snapshot per (node, tick). The queried metric
// (index 0, "cpu_user_pct") varies with both so a wrong chunk or a
// shifted window shows up as a value mismatch, not just a count.
std::vector<std::uint8_t> makePayload(int node, long tick) {
  rpc::Encoder enc;
  enc.putDouble(static_cast<double>(tick));
  std::vector<double> nodeVec(metrics::kNodeMetricCount, 1.0);
  for (std::size_t m = 0; m < nodeVec.size(); ++m) {
    nodeVec[m] = static_cast<double>(node) * 1000.0 +
                 static_cast<double>(m) +
                 0.001 * static_cast<double>(tick % 997);
  }
  std::vector<double> nic(metrics::kNicMetricCount, 7.5);
  enc.putDoubleVector(nodeVec);
  enc.putDoubleVector(nic);
  enc.putU32(0);
  return std::vector<std::uint8_t>(enc.bytes().begin(), enc.bytes().end());
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pre-tsdb way to answer a query: load the whole archive, decode
/// every snapshot, keep the one series. This is what `asdf_archive
/// replay` effectively pays before it can look at any metric.
std::vector<tsdb::RawPoint> replayExtract(const std::string& dir,
                                          NodeId node, std::uint32_t metric,
                                          double from, double to) {
  std::vector<tsdb::RawPoint> out;
  archive::ArchiveReader reader(dir);
  for (const archive::SampleRecord& rec : reader.records()) {
    if (rec.kind != rpc::CollectKind::kSadc || !rec.ok || rec.node != node ||
        rec.payload.empty() || rec.now < from || rec.now > to) {
      continue;
    }
    metrics::SadcSnapshot snap;
    try {
      rpc::Decoder payload(rec.payload);
      snap = rpc::decodeSnapshot(payload);
    } catch (const std::exception&) {
      continue;
    }
    if (snap.node.size() != metrics::kNodeMetricCount ||
        snap.nic.size() != metrics::kNicMetricCount) {
      continue;
    }
    const std::vector<double> values = metrics::flattenNodeVector(snap);
    out.push_back({rec.now, values[metric]});
  }
  return out;
}

bool bitExactEqual(const std::vector<tsdb::RawPoint>& a,
                   const std::vector<tsdb::RawPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].t, &b[i].t, sizeof(double)) != 0 ||
        std::memcmp(&a[i].v, &b[i].v, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"records", "nodes", "segment-bytes", "window",
                       "min-speedup", "json"});
  const long records = bench::flagInt(argc, argv, "records", 30000);
  const int nodes = static_cast<int>(bench::flagInt(argc, argv, "nodes", 16));
  const std::size_t segmentBytes = static_cast<std::size_t>(
      bench::flagInt(argc, argv, "segment-bytes", 1 << 20));
  const double window = bench::flagDouble(argc, argv, "window", 30.0);
  const double minSpeedup = bench::flagDouble(argc, argv, "min-speedup", 0.0);
  const std::string jsonPath = bench::flagValue(argc, argv, "json", "");

  const std::string dir = "bench-archive-query.tmp";
  std::filesystem::remove_all(dir);

  archive::ArchiveMeta meta;
  meta.seed = 42;
  meta.slaves = nodes;
  meta.source = "bench";
  meta.duration = static_cast<double>(records / nodes);

  archive::ArchiveWriterOptions opts;
  opts.dir = dir;
  opts.maxSegmentBytes = segmentBytes;
  opts.maxSegmentSeconds = 1.0e18;  // rotate by size only

  std::printf("archive query: %ld records across %d nodes, %zu B segments, "
              "%.0f s window\n",
              records, nodes, segmentBytes, window);
  bench::printRule();

  long segmentsSealed = 0;
  {
    archive::ArchiveWriter writer(opts, meta);
    for (long i = 0; i < records; ++i) {
      const int node = static_cast<int>(1 + i % nodes);
      const long tick = i / nodes;
      const std::vector<std::uint8_t> payload = makePayload(node, tick);
      rpc::CollectSample sample;
      sample.kind = rpc::CollectKind::kSadc;
      sample.node = static_cast<NodeId>(node);
      sample.now = static_cast<double>(tick);
      sample.attempts = 1;
      sample.ok = true;
      sample.payload = payload.data();
      sample.payloadSize = payload.size();
      writer.onSample(sample);
    }
    writer.close();
    segmentsSealed = writer.segmentsSealed();
  }

  long compactedFiles = 0;
  std::int64_t compactedBytes = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    for (const tsdb::CompactResult& r : tsdb::compactArchive(dir)) {
      if (!r.skipped) ++compactedFiles;
      compactedBytes += r.fileBytes;
    }
    std::printf("compact: %ld segments -> %lld tsdb bytes in %.3f s\n",
                compactedFiles, static_cast<long long>(compactedBytes),
                secondsSince(start));
  }

  // A window in the middle of the recording, far from both edges.
  const double lastTick = static_cast<double>(records / nodes - 1);
  const double from = lastTick * 0.5;
  const double to = from + window;
  const NodeId node = static_cast<NodeId>(1 + nodes / 2);
  const std::uint32_t metric = tsdb::metricIndexOf("cpu_user_pct");

  // Full replay extraction (the baseline the speedup is against).
  const auto replayStart = std::chrono::steady_clock::now();
  const std::vector<tsdb::RawPoint> replayPoints =
      replayExtract(dir, node, metric, from, to);
  const double replaySeconds = secondsSince(replayStart);
  std::printf("replay extract: %zu points in %.4f s (full archive decode)\n",
              replayPoints.size(), replaySeconds);

  // Cold raw-window scan: fresh Store per iteration, best of several
  // so one scheduler hiccup does not decide the gate.
  const int kIters = 5;
  double scanSeconds = 1.0e18;
  std::vector<tsdb::RawPoint> scanPoints;
  for (int i = 0; i < kIters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    tsdb::Store store(dir);
    tsdb::ScanResult r = store.scan(
        {node, "cpu_user_pct", from, to, tsdb::Resolution::kRaw});
    const double s = secondsSince(start);
    if (s < scanSeconds) {
      scanSeconds = s;
      scanPoints = std::move(r.points);
    }
  }
  const bool pointsMatch = bitExactEqual(replayPoints, scanPoints);
  const double speedup = replaySeconds / scanSeconds;
  std::printf("cold scan:      %zu points in %.6f s (%.0fx, bit-exact "
              "vs replay: %s)\n",
              scanPoints.size(), scanSeconds, speedup,
              pointsMatch ? "yes" : "NO");

  // Cold 1m rollup over the whole recording — the "plot the run"
  // query, answered from pre-reduced buckets.
  double rollupSeconds = 1.0e18;
  std::size_t rollupBuckets = 0;
  std::int64_t rollupCount = 0;
  for (int i = 0; i < kIters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    tsdb::Store store(dir);
    const tsdb::ScanResult r = store.scan(
        {node, "cpu_user_pct", 0.0, lastTick, tsdb::Resolution::k1m});
    const double s = secondsSince(start);
    if (s < rollupSeconds) {
      rollupSeconds = s;
      rollupBuckets = r.buckets.size();
      rollupCount = 0;
      for (const tsdb::Bucket& b : r.buckets) rollupCount += b.count;
    }
  }
  const double rollupSpeedup = replaySeconds / rollupSeconds;
  std::printf("rollup scan:    %zu 1m buckets (%lld raw points) in %.6f s "
              "(%.0fx)\n",
              rollupBuckets, static_cast<long long>(rollupCount),
              rollupSeconds, rollupSpeedup);
  bench::printRule();

  bool ok = pointsMatch && !replayPoints.empty() &&
            rollupCount == static_cast<std::int64_t>(records / nodes);
  if (!pointsMatch) std::fprintf(stderr, "FAIL: scan != replay extraction\n");
  if (minSpeedup > 0.0 && speedup < minSpeedup) {
    std::fprintf(stderr, "FAIL: cold scan speedup %.0fx below required "
                 "%.0fx\n", speedup, minSpeedup);
    ok = false;
  }

  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"archive_query\",\n");
    std::fprintf(f, "  \"records\": %ld,\n", records);
    std::fprintf(f, "  \"segments_sealed\": %ld,\n", segmentsSealed);
    std::fprintf(f, "  \"compacted_files\": %ld,\n", compactedFiles);
    std::fprintf(f, "  \"window_points\": %zu,\n", scanPoints.size());
    std::fprintf(f, "  \"points_match_replay\": %s,\n",
                 pointsMatch ? "true" : "false");
    std::fprintf(f, "  \"rollup_buckets\": %zu,\n", rollupBuckets);
    std::fprintf(f, "  \"rollup_point_count\": %lld,\n",
                 static_cast<long long>(rollupCount));
    std::fprintf(f, "  \"replay_wall_s\": %.4f,\n", replaySeconds);
    std::fprintf(f, "  \"scan_wall_s\": %.6f,\n", scanSeconds);
    std::fprintf(f, "  \"rollup_wall_s\": %.6f,\n", rollupSeconds);
    std::fprintf(f, "  \"scan_speedup\": %.0f,\n", speedup);
    std::fprintf(f, "  \"rollup_speedup\": %.0f\n", rollupSpeedup);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", jsonPath.c_str());
  }

  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
