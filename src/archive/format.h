// On-disk format of the telemetry flight recorder (DESIGN.md §11).
//
// An archive is a directory of segment files:
//
//   seg-00000001.asar        sealed segment (footer + trailer present)
//   seg-00000002.asar.open   active segment (crash-recoverable prefix)
//
// A segment is a stream of frames in the live wire framing
// (src/net/frame.h: 16-byte header with magic/version/type/length and
// a CRC-32 of the payload), using record types from a range disjoint
// from the live protocol's message types:
//
//   kMetaRecord   (0x40)  first frame: run parameters (seed, slaves,
//                         fault, durations) — enough to replay
//   kSampleRecord (0x41)  one collection round: kind, node, seq, now,
//                         watermark, attempts, ok, payload bytes
//   kTruthRecord  (0x42)  ground truth + cluster counters, written
//                         when the recording run ends
//   kFooterRecord (0x43)  record counts + time range, sealed segments
//   kCheckpointRecord
//                 (0x44)  periodic full-state snapshot (format v2):
//                         per-stream seq watermarks plus the latest
//                         sadc metric vector per node, so a reader can
//                         seek into a segment (the footer indexes the
//                         checkpoints by time and file offset) instead
//                         of replaying from record zero
//
// A sealed segment ends with the fixed 16-byte raw trailer of
// archive/files.h (magic "ASFT", format version, footer offset), so a
// reader can locate the footer without scanning — and any torn or
// truncated seal is detectable because the trailer is the very last
// thing written before fsync + rename-into-place. Active segments have
// no footer/trailer; on crash-recovery open the reader walks frames
// sequentially and tolerates a torn final record (the committed prefix
// is intact because records hit the file with unbuffered writes).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "archive/files.h"
#include "common/types.h"
#include "net/frame.h"
#include "rpc/collection_tap.h"
#include "rpc/wire.h"

namespace asdf::archive {

// v1: PR 5 shape. v2 adds checkpoint records and the footer's
// checkpoint index; v1 archives remain fully readable.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kMinReadVersion = 1;

// Archive record types share the frame header's u16 type field with
// the live protocol but start at 0x40, so a stray archive segment fed
// to a live decoder (or vice versa) is unmistakable.
inline constexpr net::MsgType kMetaRecord = static_cast<net::MsgType>(0x40);
inline constexpr net::MsgType kSampleRecord = static_cast<net::MsgType>(0x41);
inline constexpr net::MsgType kTruthRecord = static_cast<net::MsgType>(0x42);
inline constexpr net::MsgType kFooterRecord = static_cast<net::MsgType>(0x43);
inline constexpr net::MsgType kCheckpointRecord =
    static_cast<net::MsgType>(0x44);

inline constexpr std::uint32_t kTrailerMagic = 0x41534654u;  // "ASFT"
inline constexpr TrailerFormat kArchiveTrailer{kTrailerMagic, kFormatVersion,
                                               kMinReadVersion};

/// Run parameters stamped into every segment's first frame. Everything
/// `asdf_archive replay` needs to retrain the model and rebuild the
/// pipeline for a faithful re-run.
struct ArchiveMeta {
  // Format version of the segment this meta was decoded from (encode
  // always stamps kFormatVersion). Not a run parameter.
  std::uint32_t version = kFormatVersion;
  std::uint64_t seed = 0;
  int slaves = 0;
  std::string source;  // "sim" | "live" | "rpcd-sim" | "rpcd-proc"
  double duration = 0.0;
  double trainDuration = 0.0;
  double trainWarmup = 0.0;
  int centroids = 0;
  std::uint32_t faultType = 0;  // faults::FaultType as stored
  NodeId faultNode = 0;
  double faultStart = kNoTime;
  double faultEnd = kNoTime;
  double mixChangeTime = -1.0;
};

/// One archived collection round (the durable form of CollectSample).
/// `seq` numbers records per (kind, node) stream for gap diagnostics.
struct SampleRecord {
  rpc::CollectKind kind = rpc::CollectKind::kSadc;
  NodeId node = 0;
  std::int64_t seq = 0;
  double now = kNoTime;
  double watermark = kNoTime;
  int attempts = 1;
  bool ok = true;
  std::vector<std::uint8_t> payload;
};

/// Ground truth + cluster counters of the recording run, written when
/// it ends. Absent from archives whose recorder was killed mid-run —
/// replay then falls back to the meta frame's fault fields.
struct TruthRecord {
  int slaveIndex = -1;
  double faultStart = kNoTime;
  double faultEnd = kNoTime;
  double simulatedSeconds = 0.0;
  std::int64_t jobsSubmitted = 0;
  std::int64_t jobsCompleted = 0;
  std::int64_t tasksCompleted = 0;
  std::int64_t tasksFailed = 0;
  std::int64_t speculativeLaunches = 0;
  std::int64_t syncDroppedSeconds = 0;
};

/// Sequence watermark of one (kind, node) collection stream at a
/// checkpoint: the next seq the stream will archive and the timestamp
/// of its most recent record.
struct StreamState {
  rpc::CollectKind kind = rpc::CollectKind::kSadc;
  NodeId node = 0;
  std::int64_t nextSeq = 0;
  double lastNow = kNoTime;
};

/// Latest flattened sadc metric vector (metrics::flattenNodeVector
/// order: 64 node-level + 18 NIC metrics) a node had reported by
/// checkpoint time — the "full state" a seeking reader resumes from.
struct NodeState {
  NodeId node = 0;
  double sampleNow = kNoTime;
  std::vector<double> values;
};

/// Periodic full-state snapshot interleaved into segments (format v2).
struct CheckpointRecord {
  double now = kNoTime;
  std::vector<StreamState> streams;
  std::vector<NodeState> nodes;
};

/// Footer index entry locating one checkpoint frame inside its
/// segment: a reader seeks to `offset` and decodes forward from there.
struct CheckpointIndexEntry {
  double now = kNoTime;
  std::uint64_t offset = 0;  // file offset of the checkpoint frame
};

/// Per-segment index written as the sealed segment's last frame.
struct SegmentFooter {
  std::int64_t recordCount = 0;  // sample records only
  double firstNow = kNoTime;
  double lastNow = kNoTime;
  std::array<std::int64_t, rpc::kCollectKindCount> kindCounts{};
  std::int64_t payloadBytes = 0;
  std::vector<CheckpointIndexEntry> checkpoints;  // format v2
};

void encodeMeta(rpc::Encoder& enc, const ArchiveMeta& meta);
ArchiveMeta decodeMeta(rpc::Decoder& dec);

/// Encodes a sample straight from the observer callback (no
/// intermediate SampleRecord copy on the write path).
void encodeSample(rpc::Encoder& enc, const rpc::CollectSample& sample,
                  std::int64_t seq);
void encodeSample(rpc::Encoder& enc, const SampleRecord& rec);
SampleRecord decodeSample(rpc::Decoder& dec);

void encodeTruth(rpc::Encoder& enc, const TruthRecord& truth);
TruthRecord decodeTruth(rpc::Decoder& dec);

void encodeCheckpoint(rpc::Encoder& enc, const CheckpointRecord& cp);
CheckpointRecord decodeCheckpoint(rpc::Decoder& dec);

/// Footer layout depends on the segment's format version (the meta
/// frame's version field): v1 footers have no checkpoint index.
void encodeFooter(rpc::Encoder& enc, const SegmentFooter& footer);
SegmentFooter decodeFooter(rpc::Decoder& dec, std::uint32_t version);

/// The one rule for which archived records carry queryable metrics: an
/// ok, timestamped sadc record whose payload decodes to a full snapshot
/// (payloads are opaque at this layer; synthetic test payloads fail).
/// Fills `values` in metrics::flattenNodeVector order. The writer's
/// checkpoint builder applies the payload half, flattenSadcPayload.
bool recordMetrics(const SampleRecord& rec, std::vector<double>& values);
bool flattenSadcPayload(const std::vector<std::uint8_t>& payload,
                        std::vector<double>& values);

/// "seg-%08llu.asar" — sealed name; active segments append ".open".
std::string segmentFileName(std::uint64_t index);
inline constexpr const char* kOpenSuffix = ".open";

}  // namespace asdf::archive
