// Flight-recorder I/O throughput: records/s and MB/s through the full
// ArchiveWriter frame-encode -> unbuffered write -> seal path, then
// back through ArchiveReader's load + integrity check.
//
// Usage:
//   bench_archive_io [--records=20000] [--nodes=16]
//                    [--segment-bytes=1048576]
//                    [--json=bench/baselines/archive_io.json]
//
// The deterministic fields of the --json report (record counts, bytes
// per record, segments sealed, verification outcome) are pinned by CI
// with check_bench_regression --exact; the rate fields are
// machine-dependent and ignored there.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "archive/reader.h"
#include "archive/writer.h"
#include "bench_util.h"
#include "metrics/catalog.h"
#include "rpc/wire.h"

namespace {

using namespace asdf;

// A sadc-snapshot-sized payload — the largest record the collection
// plane archives every second (64 node + 18 NIC metrics plus four
// per-process vectors). `tick` varies the bytes so segments do not
// compress into pathological sameness at the page-cache level.
std::vector<std::uint8_t> makePayload(long tick) {
  rpc::Encoder enc;
  enc.putDouble(static_cast<double>(tick));
  std::vector<double> node(metrics::kNodeMetricCount,
                           3.25 + 0.001 * static_cast<double>(tick % 97));
  std::vector<double> nic(metrics::kNicMetricCount, 7.5);
  enc.putDoubleVector(node);
  enc.putDoubleVector(nic);
  enc.putU32(4);
  for (int p = 0; p < 4; ++p) {
    enc.putString("proc" + std::to_string(p));
    enc.putDoubleVector(
        std::vector<double>(metrics::kProcessMetricCount, 1.5));
  }
  return std::vector<std::uint8_t>(enc.bytes().begin(), enc.bytes().end());
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::requireFlags(argc, argv,
                      {"records", "nodes", "segment-bytes", "json"});
  const long records = bench::flagInt(argc, argv, "records", 20000);
  const int nodes = static_cast<int>(bench::flagInt(argc, argv, "nodes", 16));
  const std::size_t segmentBytes = static_cast<std::size_t>(
      bench::flagInt(argc, argv, "segment-bytes", 1 << 20));
  const std::string jsonPath = bench::flagValue(argc, argv, "json", "");

  const std::string dir = "bench-archive-io.tmp";
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

  std::printf("archive io: %ld records across %d nodes, %zu B segments\n",
              records, nodes, segmentBytes);
  bench::printRule();

  std::int64_t payloadBytes = 0;
  std::int64_t fileBytes = 0;
  long segmentsSealed = 0;
  double writeSeconds = 0.0;
  {
    archive::ArchiveWriter writer(opts, meta);
    const auto start = std::chrono::steady_clock::now();
    for (long i = 0; i < records; ++i) {
      const std::vector<std::uint8_t> payload = makePayload(i);
      rpc::CollectSample sample;
      sample.kind = rpc::CollectKind::kSadc;
      sample.node = static_cast<NodeId>(1 + i % nodes);
      sample.now = static_cast<double>(i / nodes);
      sample.attempts = 1;
      sample.ok = true;
      sample.payload = payload.data();
      sample.payloadSize = payload.size();
      writer.onSample(sample);
      payloadBytes += static_cast<std::int64_t>(payload.size());
    }
    writer.close();
    writeSeconds = secondsSince(start);
    fileBytes = writer.bytesWritten();
    segmentsSealed = writer.segmentsSealed();
  }

  const double writeRecsPerSec = static_cast<double>(records) / writeSeconds;
  const double writeMbPerSec =
      static_cast<double>(fileBytes) / writeSeconds / 1e6;
  std::printf("write: %8.0f records/s %8.2f MB/s (%lld file bytes, "
              "%ld segments)\n",
              writeRecsPerSec, writeMbPerSec,
              static_cast<long long>(fileBytes), segmentsSealed);

  const auto readStart = std::chrono::steady_clock::now();
  long recordsRead = 0;
  {
    archive::ArchiveReader reader(dir);
    recordsRead = static_cast<long>(reader.records().size());
  }
  const double readSeconds = secondsSince(readStart);
  const double readRecsPerSec = static_cast<double>(recordsRead) / readSeconds;
  const double readMbPerSec =
      static_cast<double>(fileBytes) / readSeconds / 1e6;
  std::printf("read:  %8.0f records/s %8.2f MB/s (%ld records)\n",
              readRecsPerSec, readMbPerSec, recordsRead);

  const auto verifyStart = std::chrono::steady_clock::now();
  const archive::ArchiveReader::VerifyResult verify =
      archive::ArchiveReader::verify(dir);
  const double verifySeconds = secondsSince(verifyStart);
  std::printf("verify: %s in %.3f s (%lld records, %zu torn tail bytes)\n",
              verify.ok ? "OK" : "CORRUPT", verifySeconds,
              static_cast<long long>(verify.recordsVerified),
              verify.tornTailBytes);
  bench::printRule();

  const std::int64_t bytesPerRecord = fileBytes / records;
  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"archive_io\",\n");
    std::fprintf(f, "  \"records\": %ld,\n", records);
    std::fprintf(f, "  \"payload_bytes\": %lld,\n",
                 static_cast<long long>(payloadBytes));
    std::fprintf(f, "  \"bytes_per_record\": %lld,\n",
                 static_cast<long long>(bytesPerRecord));
    std::fprintf(f, "  \"segments_sealed\": %ld,\n", segmentsSealed);
    std::fprintf(f, "  \"verify_ok\": %s,\n", verify.ok ? "true" : "false");
    std::fprintf(f, "  \"torn_tail_bytes\": %zu,\n", verify.tornTailBytes);
    std::fprintf(f, "  \"write_records_per_sec\": %.0f,\n", writeRecsPerSec);
    std::fprintf(f, "  \"write_mb_per_sec\": %.2f,\n", writeMbPerSec);
    std::fprintf(f, "  \"read_records_per_sec\": %.0f,\n", readRecsPerSec);
    std::fprintf(f, "  \"read_mb_per_sec\": %.2f\n", readMbPerSec);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", jsonPath.c_str());
  }

  std::filesystem::remove_all(dir);
  return (verify.ok && recordsRead == records) ? 0 : 1;
}
