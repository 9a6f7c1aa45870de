#include "tsdb/format.h"

#include <cmath>
#include <cstring>

#include "common/bytes.h"
#include "common/strings.h"

namespace asdf::tsdb {
namespace {

inline std::uint64_t doubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double bitsDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Column blobs ride inside the codec's string type (length prefix +
// padding), same as archive sample payloads.
std::string blobToString(const std::vector<std::uint8_t>& blob) {
  return std::string(blob.begin(), blob.end());
}

}  // namespace

Resolution resolutionFromName(const std::string& name) {
  if (name == "raw") return Resolution::kRaw;
  if (name == "10s") return Resolution::k10s;
  if (name == "1m") return Resolution::k1m;
  if (name == "10m") return Resolution::k10m;
  throw TsdbError("tsdb: unknown resolution '" + name +
                  "' (raw|10s|1m|10m)");
}

const char* resolutionName(Resolution res) {
  switch (res) {
    case Resolution::kRaw:
      return "raw";
    case Resolution::k10s:
      return "10s";
    case Resolution::k1m:
      return "1m";
    case Resolution::k10m:
      return "10m";
  }
  return "unknown";
}

void putVarU64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t getVarU64(const std::uint8_t* data, std::size_t size,
                        std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos >= size) throw TsdbError("tsdb: varint runs past the blob");
    if (shift >= 64) throw TsdbError("tsdb: varint overflows 64 bits");
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

void encodeDoubleColumn(std::vector<std::uint8_t>& buf,
                        const std::vector<double>& values) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t bits = doubleBits(values[i]);
    if (i == 0) {
      bytes::putU64(buf, bits);
    } else {
      putVarU64(buf, bits ^ prev);
    }
    prev = bits;
  }
}

std::vector<double> decodeDoubleColumn(const std::uint8_t* data,
                                       std::size_t size, std::size_t& pos,
                                       std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits;
    if (i == 0) {
      if (pos + 8 > size) {
        throw TsdbError("tsdb: double column snapshot runs past the blob");
      }
      bits = bytes::readU64(data + pos);
      pos += 8;
    } else {
      bits = prev ^ getVarU64(data, size, pos);
    }
    out.push_back(bitsDouble(bits));
    prev = bits;
  }
  return out;
}

void encodeTsdbMeta(rpc::Encoder& enc, const TsdbMeta& meta) {
  enc.putU32(kTsdbFormatVersion);
  enc.putI64(static_cast<std::int64_t>(meta.sourceIndex));
  enc.putI64(meta.sourceFileBytes);
  enc.putDouble(meta.firstNow);
  enc.putDouble(meta.lastNow);
  enc.putI64(meta.samplePoints);
  enc.putU32(meta.metricCount);
}

TsdbMeta decodeTsdbMeta(rpc::Decoder& dec) {
  TsdbMeta meta;
  meta.version = dec.getU32();
  if (meta.version != kTsdbFormatVersion) {
    throw TsdbError("tsdb: format version " + std::to_string(meta.version) +
                    " (this build reads version " +
                    std::to_string(kTsdbFormatVersion) + ")");
  }
  meta.sourceIndex = static_cast<std::uint64_t>(dec.getI64());
  meta.sourceFileBytes = dec.getI64();
  meta.firstNow = dec.getDouble();
  meta.lastNow = dec.getDouble();
  meta.samplePoints = dec.getI64();
  meta.metricCount = dec.getU32();
  return meta;
}

void encodeColumnChunk(rpc::Encoder& enc, NodeId node, std::uint32_t metric,
                       const std::vector<RawPoint>& points) {
  enc.putU32(static_cast<std::uint32_t>(node));
  enc.putU32(metric);
  enc.putU32(static_cast<std::uint32_t>(points.size()));
  std::vector<double> times, values;
  times.reserve(points.size());
  values.reserve(points.size());
  for (const RawPoint& p : points) {
    times.push_back(p.t);
    values.push_back(p.v);
  }
  std::vector<std::uint8_t> blob;
  encodeDoubleColumn(blob, times);
  encodeDoubleColumn(blob, values);
  enc.putString(blobToString(blob));
}

void decodeColumnChunk(rpc::Decoder& dec, NodeId& node,
                       std::uint32_t& metric, std::vector<RawPoint>& points) {
  node = static_cast<NodeId>(dec.getU32());
  metric = dec.getU32();
  const std::uint32_t count = dec.getU32();
  const std::string blob = dec.getString();
  const std::uint8_t* data =
      reinterpret_cast<const std::uint8_t*>(blob.data());
  std::size_t pos = 0;
  const std::vector<double> times =
      decodeDoubleColumn(data, blob.size(), pos, count);
  const std::vector<double> values =
      decodeDoubleColumn(data, blob.size(), pos, count);
  if (pos != blob.size()) {
    throw TsdbError("tsdb: column chunk blob has trailing bytes");
  }
  points.clear();
  points.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    points.push_back({times[i], values[i]});
  }
}

void encodeRollupChunk(rpc::Encoder& enc, NodeId node, std::uint32_t metric,
                       std::uint32_t level,
                       const std::vector<Bucket>& buckets) {
  enc.putU32(static_cast<std::uint32_t>(node));
  enc.putU32(metric);
  enc.putU32(level);
  enc.putU32(static_cast<std::uint32_t>(buckets.size()));
  std::vector<std::uint8_t> blob;
  std::int64_t prevIndex = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    // First index raw (zigzag), then deltas — consecutive buckets are
    // mostly +1, one byte each.
    putVarU64(blob, zigzag(i == 0 ? buckets[i].index
                                  : buckets[i].index - prevIndex));
    prevIndex = buckets[i].index;
  }
  std::vector<double> mins, maxes, sums;
  mins.reserve(buckets.size());
  maxes.reserve(buckets.size());
  sums.reserve(buckets.size());
  for (const Bucket& b : buckets) {
    mins.push_back(b.min);
    maxes.push_back(b.max);
    sums.push_back(b.sum);
  }
  encodeDoubleColumn(blob, mins);
  encodeDoubleColumn(blob, maxes);
  encodeDoubleColumn(blob, sums);
  for (const Bucket& b : buckets) {
    putVarU64(blob, static_cast<std::uint64_t>(b.count));
  }
  enc.putString(blobToString(blob));
}

void decodeRollupChunk(rpc::Decoder& dec, NodeId& node,
                       std::uint32_t& metric, std::uint32_t& level,
                       std::vector<Bucket>& buckets) {
  node = static_cast<NodeId>(dec.getU32());
  metric = dec.getU32();
  level = dec.getU32();
  const std::uint32_t count = dec.getU32();
  const std::string blob = dec.getString();
  const std::uint8_t* data =
      reinterpret_cast<const std::uint8_t*>(blob.data());
  std::size_t pos = 0;
  buckets.assign(count, Bucket{});
  std::int64_t prevIndex = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::int64_t delta = unzigzag(getVarU64(data, blob.size(), pos));
    buckets[i].index = i == 0 ? delta : prevIndex + delta;
    prevIndex = buckets[i].index;
  }
  const std::vector<double> mins =
      decodeDoubleColumn(data, blob.size(), pos, count);
  const std::vector<double> maxes =
      decodeDoubleColumn(data, blob.size(), pos, count);
  const std::vector<double> sums =
      decodeDoubleColumn(data, blob.size(), pos, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    buckets[i].min = mins[i];
    buckets[i].max = maxes[i];
    buckets[i].sum = sums[i];
    buckets[i].count =
        static_cast<std::int64_t>(getVarU64(data, blob.size(), pos));
  }
  if (pos != blob.size()) {
    throw TsdbError("tsdb: rollup chunk blob has trailing bytes");
  }
}

void encodeTsdbFooter(rpc::Encoder& enc, const TsdbFooter& footer) {
  enc.putDouble(footer.firstNow);
  enc.putDouble(footer.lastNow);
  enc.putI64(footer.samplePoints);
  enc.putU32(static_cast<std::uint32_t>(footer.chunks.size()));
  for (const ChunkIndexEntry& c : footer.chunks) {
    enc.putU32(static_cast<std::uint32_t>(c.node));
    enc.putU32(c.metric);
    enc.putU32(c.level);
    enc.putI64(static_cast<std::int64_t>(c.offset));
    enc.putI64(c.count);
    enc.putDouble(c.firstNow);
    enc.putDouble(c.lastNow);
  }
}

TsdbFooter decodeTsdbFooter(rpc::Decoder& dec) {
  TsdbFooter footer;
  footer.firstNow = dec.getDouble();
  footer.lastNow = dec.getDouble();
  footer.samplePoints = dec.getI64();
  const std::uint32_t n = dec.getU32();
  footer.chunks.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ChunkIndexEntry c;
    c.node = static_cast<NodeId>(dec.getU32());
    c.metric = dec.getU32();
    c.level = dec.getU32();
    c.offset = static_cast<std::uint64_t>(dec.getI64());
    c.count = dec.getI64();
    c.firstNow = dec.getDouble();
    c.lastNow = dec.getDouble();
    footer.chunks.push_back(c);
  }
  return footer;
}

std::int64_t bucketIndexOf(double t, std::uint32_t level) {
  return static_cast<std::int64_t>(
      std::floor(t / static_cast<double>(level)));
}

void accumulateBucket(std::vector<Bucket>& buckets, std::uint32_t level,
                      double t, double v) {
  const std::int64_t index = bucketIndexOf(t, level);
  if (!buckets.empty() && index < buckets.back().index) {
    throw TsdbError("tsdb: out-of-order point at t=" + std::to_string(t));
  }
  if (buckets.empty() || buckets.back().index != index) {
    Bucket b;
    b.index = index;
    b.min = v;
    b.max = v;
    b.sum = v;
    b.count = 1;
    buckets.push_back(b);
    return;
  }
  Bucket& b = buckets.back();
  if (v < b.min) b.min = v;
  if (v > b.max) b.max = v;
  b.sum += v;
  ++b.count;
}

void mergeBuckets(std::vector<Bucket>& dst, const std::vector<Bucket>& src) {
  for (const Bucket& b : src) {
    if (!dst.empty() && b.index < dst.back().index) {
      throw TsdbError("tsdb: bucket merge out of order");
    }
    if (!dst.empty() && dst.back().index == b.index) {
      Bucket& d = dst.back();
      if (b.min < d.min) d.min = b.min;
      if (b.max > d.max) d.max = b.max;
      d.sum += b.sum;  // partial sums add in piece order
      d.count += b.count;
    } else {
      dst.push_back(b);
    }
  }
}

std::string tsdbFileName(std::uint64_t index) {
  return strformat("seg-%08llu.astd",
                   static_cast<unsigned long long>(index));
}

}  // namespace asdf::tsdb
