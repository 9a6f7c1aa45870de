#include "archive/format.h"

#include "common/strings.h"
#include "metrics/sadc.h"
#include "rpc/payloads.h"

namespace asdf::archive {
namespace {

// XDR-opaque payload bytes ride in the codec's string type (length
// prefix + zero padding); std::string carries arbitrary bytes.
std::string bytesToString(const std::uint8_t* data, std::size_t size) {
  return std::string(reinterpret_cast<const char*>(data), size);
}

std::vector<std::uint8_t> stringToBytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

}  // namespace

void encodeMeta(rpc::Encoder& enc, const ArchiveMeta& meta) {
  enc.putU32(kFormatVersion);
  enc.putI64(static_cast<std::int64_t>(meta.seed));
  enc.putU32(static_cast<std::uint32_t>(meta.slaves));
  enc.putString(meta.source);
  enc.putDouble(meta.duration);
  enc.putDouble(meta.trainDuration);
  enc.putDouble(meta.trainWarmup);
  enc.putU32(static_cast<std::uint32_t>(meta.centroids));
  enc.putU32(meta.faultType);
  enc.putI64(static_cast<std::int64_t>(meta.faultNode));
  enc.putDouble(meta.faultStart);
  enc.putDouble(meta.faultEnd);
  enc.putDouble(meta.mixChangeTime);
}

ArchiveMeta decodeMeta(rpc::Decoder& dec) {
  const std::uint32_t version = dec.getU32();
  if (version < kMinReadVersion || version > kFormatVersion) {
    throw ArchiveError("archive: format version " + std::to_string(version) +
                       " (this build reads versions " +
                       std::to_string(kMinReadVersion) + ".." +
                       std::to_string(kFormatVersion) + ")");
  }
  ArchiveMeta meta;
  meta.version = version;
  meta.seed = static_cast<std::uint64_t>(dec.getI64());
  meta.slaves = static_cast<int>(dec.getU32());
  meta.source = dec.getString();
  meta.duration = dec.getDouble();
  meta.trainDuration = dec.getDouble();
  meta.trainWarmup = dec.getDouble();
  meta.centroids = static_cast<int>(dec.getU32());
  meta.faultType = dec.getU32();
  meta.faultNode = static_cast<NodeId>(dec.getI64());
  meta.faultStart = dec.getDouble();
  meta.faultEnd = dec.getDouble();
  meta.mixChangeTime = dec.getDouble();
  return meta;
}

namespace {

void encodeSampleFields(rpc::Encoder& enc, rpc::CollectKind kind, NodeId node,
                        std::int64_t seq, double now, double watermark,
                        int attempts, bool ok, const std::uint8_t* payload,
                        std::size_t payloadSize) {
  enc.putU32(static_cast<std::uint32_t>(kind));
  enc.putU32(static_cast<std::uint32_t>(node));
  enc.putI64(seq);
  enc.putDouble(now);
  enc.putDouble(watermark);
  enc.putU32(static_cast<std::uint32_t>(attempts));
  enc.putU32(ok ? 1 : 0);
  enc.putString(bytesToString(payload, payloadSize));
}

}  // namespace

void encodeSample(rpc::Encoder& enc, const rpc::CollectSample& sample,
                  std::int64_t seq) {
  encodeSampleFields(enc, sample.kind, sample.node, seq, sample.now,
                     sample.watermark, sample.attempts, sample.ok,
                     sample.payload, sample.payloadSize);
}

void encodeSample(rpc::Encoder& enc, const SampleRecord& rec) {
  encodeSampleFields(enc, rec.kind, rec.node, rec.seq, rec.now, rec.watermark,
                     rec.attempts, rec.ok, rec.payload.data(),
                     rec.payload.size());
}

SampleRecord decodeSample(rpc::Decoder& dec) {
  SampleRecord rec;
  const std::uint32_t kind = dec.getU32();
  if (kind >= static_cast<std::uint32_t>(rpc::kCollectKindCount)) {
    throw ArchiveError("archive: unknown collect kind " +
                       std::to_string(kind));
  }
  rec.kind = static_cast<rpc::CollectKind>(kind);
  rec.node = static_cast<NodeId>(dec.getU32());
  rec.seq = dec.getI64();
  rec.now = dec.getDouble();
  rec.watermark = dec.getDouble();
  rec.attempts = static_cast<int>(dec.getU32());
  rec.ok = dec.getU32() != 0;
  rec.payload = stringToBytes(dec.getString());
  return rec;
}

void encodeTruth(rpc::Encoder& enc, const TruthRecord& truth) {
  enc.putI64(truth.slaveIndex);
  enc.putDouble(truth.faultStart);
  enc.putDouble(truth.faultEnd);
  enc.putDouble(truth.simulatedSeconds);
  enc.putI64(truth.jobsSubmitted);
  enc.putI64(truth.jobsCompleted);
  enc.putI64(truth.tasksCompleted);
  enc.putI64(truth.tasksFailed);
  enc.putI64(truth.speculativeLaunches);
  enc.putI64(truth.syncDroppedSeconds);
}

TruthRecord decodeTruth(rpc::Decoder& dec) {
  TruthRecord truth;
  truth.slaveIndex = static_cast<int>(dec.getI64());
  truth.faultStart = dec.getDouble();
  truth.faultEnd = dec.getDouble();
  truth.simulatedSeconds = dec.getDouble();
  truth.jobsSubmitted = dec.getI64();
  truth.jobsCompleted = dec.getI64();
  truth.tasksCompleted = dec.getI64();
  truth.tasksFailed = dec.getI64();
  truth.speculativeLaunches = dec.getI64();
  truth.syncDroppedSeconds = dec.getI64();
  return truth;
}

void encodeCheckpoint(rpc::Encoder& enc, const CheckpointRecord& cp) {
  enc.putDouble(cp.now);
  enc.putU32(static_cast<std::uint32_t>(cp.streams.size()));
  for (const StreamState& s : cp.streams) {
    enc.putU32(static_cast<std::uint32_t>(s.kind));
    enc.putU32(static_cast<std::uint32_t>(s.node));
    enc.putI64(s.nextSeq);
    enc.putDouble(s.lastNow);
  }
  enc.putU32(static_cast<std::uint32_t>(cp.nodes.size()));
  for (const NodeState& n : cp.nodes) {
    enc.putU32(static_cast<std::uint32_t>(n.node));
    enc.putDouble(n.sampleNow);
    enc.putDoubleVector(n.values);
  }
}

CheckpointRecord decodeCheckpoint(rpc::Decoder& dec) {
  CheckpointRecord cp;
  cp.now = dec.getDouble();
  const std::uint32_t nStreams = dec.getU32();
  cp.streams.reserve(nStreams);
  for (std::uint32_t i = 0; i < nStreams; ++i) {
    StreamState s;
    const std::uint32_t kind = dec.getU32();
    if (kind >= static_cast<std::uint32_t>(rpc::kCollectKindCount)) {
      throw ArchiveError("archive: checkpoint stream has unknown kind " +
                         std::to_string(kind));
    }
    s.kind = static_cast<rpc::CollectKind>(kind);
    s.node = static_cast<NodeId>(dec.getU32());
    s.nextSeq = dec.getI64();
    s.lastNow = dec.getDouble();
    cp.streams.push_back(s);
  }
  const std::uint32_t nNodes = dec.getU32();
  cp.nodes.reserve(nNodes);
  for (std::uint32_t i = 0; i < nNodes; ++i) {
    NodeState n;
    n.node = static_cast<NodeId>(dec.getU32());
    n.sampleNow = dec.getDouble();
    n.values = dec.getDoubleVector();
    cp.nodes.push_back(std::move(n));
  }
  return cp;
}

void encodeFooter(rpc::Encoder& enc, const SegmentFooter& footer) {
  enc.putI64(footer.recordCount);
  enc.putDouble(footer.firstNow);
  enc.putDouble(footer.lastNow);
  for (std::int64_t count : footer.kindCounts) enc.putI64(count);
  enc.putI64(footer.payloadBytes);
  enc.putU32(static_cast<std::uint32_t>(footer.checkpoints.size()));
  for (const CheckpointIndexEntry& cp : footer.checkpoints) {
    enc.putDouble(cp.now);
    enc.putI64(static_cast<std::int64_t>(cp.offset));
  }
}

SegmentFooter decodeFooter(rpc::Decoder& dec, std::uint32_t version) {
  SegmentFooter footer;
  footer.recordCount = dec.getI64();
  footer.firstNow = dec.getDouble();
  footer.lastNow = dec.getDouble();
  for (std::int64_t& count : footer.kindCounts) count = dec.getI64();
  footer.payloadBytes = dec.getI64();
  if (version >= 2) {
    const std::uint32_t n = dec.getU32();
    footer.checkpoints.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      CheckpointIndexEntry cp;
      cp.now = dec.getDouble();
      cp.offset = static_cast<std::uint64_t>(dec.getI64());
      footer.checkpoints.push_back(cp);
    }
  }
  return footer;
}

bool flattenSadcPayload(const std::vector<std::uint8_t>& payload,
                        std::vector<double>& values) {
  if (payload.empty()) return false;
  metrics::SadcSnapshot snap;
  try {
    rpc::Decoder dec(payload);
    snap = rpc::decodeSnapshot(dec);
  } catch (const std::exception&) {
    return false;
  }
  if (snap.node.size() != metrics::kNodeMetricCount ||
      snap.nic.size() != metrics::kNicMetricCount) {
    return false;
  }
  values = metrics::flattenNodeVector(snap);
  return true;
}

bool recordMetrics(const SampleRecord& rec, std::vector<double>& values) {
  return rec.kind == rpc::CollectKind::kSadc && rec.ok &&
         rec.now != kNoTime &&
         flattenSadcPayload(rec.payload, values);
}

std::string segmentFileName(std::uint64_t index) {
  return strformat("seg-%08llu.asar",
                   static_cast<unsigned long long>(index));
}

}  // namespace asdf::archive
