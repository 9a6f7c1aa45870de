// On-disk format of the queryable time-series store (DESIGN.md §14).
//
// The tsdb store lives in a `tsdb/` subdirectory of a flight-recorder
// archive. Each sealed raw segment `seg-N.asar` compacts into one
// column-oriented file `seg-N.astd`: a stream of frames in the same
// CRC-framed wire codec the archive uses (src/net/frame.h), with
// record types from the 0x50 range so a tsdb file fed to the archive
// reader (or the live decoder) is unmistakable:
//
//   kTsdbMetaRecord    (0x50)  first frame: tsdb version, source
//                              segment identity, time range, counts
//   kColumnChunkRecord (0x51)  one (node, metric) raw series: times
//                              and values, snapshot + XOR-varint
//                              deltas (bit-exact round trip)
//   kRollupChunkRecord (0x52)  one (node, metric, level) downsampled
//                              series: per-bucket min/max/sum/count
//   kTsdbFooterRecord  (0x53)  chunk index: (node, metric, level) ->
//                              file offset + time range + count
//
// and the archive's 16-byte trailer (archive/files.h) with magic
// "ASTS", so a reader locates the index with two reads and never scans
// the body. Files are written to a ".tmp" name and published with the
// same fsync-rename receipt as segment sealing (archive::publishFile);
// any flipped bit fails verify via the per-frame CRC-32 plus the index
// cross-checks.
//
// Delta encoding: a column of doubles stores the first value's raw
// bit pattern (8 bytes, big-endian) and every subsequent value as
// LEB128-varint(bits XOR previous bits). Identical consecutive values
// cost one byte; similar values share sign/exponent/high-mantissa
// bits, so the XOR has leading zeros and the varint stays short. The
// round trip is bit-exact, which the raw-vs-replay property tests
// demand. Bucket indices use zigzag-varint delta encoding (mostly +1).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "archive/files.h"
#include "common/types.h"
#include "net/frame.h"
#include "rpc/wire.h"

namespace asdf::tsdb {

/// Raised on unreadable, corrupt, or version-skewed tsdb files, and
/// on malformed queries (unknown metric, bad resolution).
class TsdbError : public std::runtime_error {
 public:
  explicit TsdbError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kTsdbFormatVersion = 1;
inline constexpr std::uint32_t kTsdbTrailerMagic = 0x41535453u;  // "ASTS"
inline constexpr std::size_t kTsdbTrailerBytes = archive::kTrailerBytes;
/// The shared trailer codec's constants for compacted files (one
/// readable version).
inline constexpr archive::TrailerFormat kTsdbTrailer{
    kTsdbTrailerMagic, kTsdbFormatVersion, kTsdbFormatVersion};

inline constexpr net::MsgType kTsdbMetaRecord =
    static_cast<net::MsgType>(0x50);
inline constexpr net::MsgType kColumnChunkRecord =
    static_cast<net::MsgType>(0x51);
inline constexpr net::MsgType kRollupChunkRecord =
    static_cast<net::MsgType>(0x52);
inline constexpr net::MsgType kTsdbFooterRecord =
    static_cast<net::MsgType>(0x53);

/// Query resolutions. The numeric value of a rollup level is its
/// bucket width in archived (virtual) seconds; 0 means raw samples.
enum class Resolution : std::uint32_t {
  kRaw = 0,
  k10s = 10,
  k1m = 60,
  k10m = 600,
};

/// The downsampling levels every compacted segment carries.
inline constexpr std::array<std::uint32_t, 3> kRollupLevels = {10, 60, 600};

/// "raw" | "10s" | "1m" | "10m". Throws TsdbError on anything else.
Resolution resolutionFromName(const std::string& name);
const char* resolutionName(Resolution res);

/// One raw sample of a (node, metric) series.
struct RawPoint {
  double t = kNoTime;
  double v = 0.0;
};

/// One downsampled bucket: bucket `index` covers archived time
/// [index*level, (index+1)*level). `sum` is the left-to-right sum of
/// the bucket's raw values within one segment; when a bucket spans a
/// segment boundary the store merges partial sums in segment order
/// (min/max/count merge exactly; the merged sum is order-defined, see
/// DESIGN.md §14).
struct Bucket {
  std::int64_t index = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::int64_t count = 0;

  double startTime(std::uint32_t level) const {
    return static_cast<double>(index) * static_cast<double>(level);
  }
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// First frame of a compacted file: identity of the raw segment it
/// was built from plus whole-file totals.
struct TsdbMeta {
  std::uint32_t version = kTsdbFormatVersion;
  std::uint64_t sourceIndex = 0;      // archive segment index
  std::int64_t sourceFileBytes = 0;   // sealed .asar size when compacted
  double firstNow = kNoTime;
  double lastNow = kNoTime;
  std::int64_t samplePoints = 0;      // raw points across all chunks
  std::uint32_t metricCount = 0;      // flattened sadc vector width
};

/// Footer index entry locating one chunk frame. level 0 = raw column
/// chunk, otherwise a rollup chunk of that bucket width.
struct ChunkIndexEntry {
  NodeId node = 0;
  std::uint32_t metric = 0;
  std::uint32_t level = 0;
  std::uint64_t offset = 0;  // file offset of the chunk's frame header
  std::int64_t count = 0;    // points (raw) or buckets (rollup)
  double firstNow = kNoTime;
  double lastNow = kNoTime;
};

struct TsdbFooter {
  double firstNow = kNoTime;
  double lastNow = kNoTime;
  std::int64_t samplePoints = 0;
  std::vector<ChunkIndexEntry> chunks;
};

// -- varint / delta primitives (exposed for tests) -------------------

void putVarU64(std::vector<std::uint8_t>& buf, std::uint64_t v);
/// Throws TsdbError when the varint runs past `size` or overflows.
std::uint64_t getVarU64(const std::uint8_t* data, std::size_t size,
                        std::size_t& pos);

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Snapshot + XOR-varint delta encoding of a double column. The round
/// trip is bit-exact for every double, NaNs and signed zeros included.
void encodeDoubleColumn(std::vector<std::uint8_t>& buf,
                        const std::vector<double>& values);
std::vector<double> decodeDoubleColumn(const std::uint8_t* data,
                                       std::size_t size, std::size_t& pos,
                                       std::size_t count);

// -- record codecs ---------------------------------------------------

void encodeTsdbMeta(rpc::Encoder& enc, const TsdbMeta& meta);
TsdbMeta decodeTsdbMeta(rpc::Decoder& dec);

/// Column chunk: raw (time, value) series of one (node, metric).
void encodeColumnChunk(rpc::Encoder& enc, NodeId node, std::uint32_t metric,
                       const std::vector<RawPoint>& points);
void decodeColumnChunk(rpc::Decoder& dec, NodeId& node,
                       std::uint32_t& metric, std::vector<RawPoint>& points);

/// Rollup chunk: bucket series of one (node, metric, level).
void encodeRollupChunk(rpc::Encoder& enc, NodeId node, std::uint32_t metric,
                       std::uint32_t level,
                       const std::vector<Bucket>& buckets);
void decodeRollupChunk(rpc::Decoder& dec, NodeId& node,
                       std::uint32_t& metric, std::uint32_t& level,
                       std::vector<Bucket>& buckets);

void encodeTsdbFooter(rpc::Encoder& enc, const TsdbFooter& footer);
TsdbFooter decodeTsdbFooter(rpc::Decoder& dec);

// -- rollup aggregation (the one definition both the compactor and
//    the store's raw-segment fallback use) --------------------------

/// Folds one raw point into a bucket series built in time order:
/// extends the last bucket or appends a new one. `t` must be
/// nondecreasing across calls for the sum order to be well defined.
void accumulateBucket(std::vector<Bucket>& buckets, std::uint32_t level,
                      double t, double v);

/// Appends `src` (time-ordered, disjoint or boundary-overlapping) to
/// `dst`, merging a shared boundary bucket: min/max/count combine
/// exactly, partial sums add in piece order.
void mergeBuckets(std::vector<Bucket>& dst, const std::vector<Bucket>& src);

/// Bucket index containing archived time t at the given level.
std::int64_t bucketIndexOf(double t, std::uint32_t level);

/// "seg-%08llu.astd" — compacted counterpart of an archive segment.
std::string tsdbFileName(std::uint64_t index);
/// Subdirectory of the archive that holds compacted segments.
inline constexpr const char* kTsdbSubdir = "tsdb";

}  // namespace asdf::tsdb
