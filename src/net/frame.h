// The live collection plane's wire framing (DESIGN.md §9).
//
// Every message between fpt-core and an asdf_rpcd daemon is one frame:
//
//   offset  size  field
//   0       4     magic 0x41534446 ("ASDF"), big-endian
//   4       2     protocol version (big-endian; currently 1)
//   6       2     message type (MsgType, big-endian)
//   8       4     payload length in bytes (big-endian, <= 16 MiB)
//   12      4     CRC-32 (IEEE) of the payload bytes
//   16      N     payload (rpc::Encoder / XDR-style marshalling)
//
// The decoder is incremental — feed() accepts whatever a read() call
// returned, frames surface via next() once complete — and defensive:
// a bad magic, an unsupported version, an oversized declared length or
// a CRC mismatch poisons the stream (Error != kNone) without throwing
// and without allocating attacker-controlled amounts of memory. A
// length-prefixed stream cannot be resynchronized after corruption, so
// the owner of a poisoned decoder must drop the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rpc/collection_tap.h"
#include "rpc/wire.h"

namespace asdf::net {

inline constexpr std::uint32_t kFrameMagic = 0x41534446u;  // "ASDF"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Hard cap on a frame payload. A 50-node cluster's largest legitimate
/// payload (a sadc snapshot with per-process vectors) is a few KB;
/// 16 MiB leaves three orders of magnitude of headroom while bounding
/// what a malicious length prefix can make the decoder buffer.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 16u << 20;

/// Message types of the collection protocol. Requests are sent by
/// fpt-core's LiveTransport, responses by asdf_rpcd.
enum class MsgType : std::uint16_t {
  kHello = 1,        // client version + greeting
  kHelloAck = 2,     // server version, members served, seed, source kind
  // Collect requests are rpc::encodeRequest payloads, responses
  // rpc::encodePayload payloads (kCollectMessages below).
  kFetchSadc = 3,
  kSadcData = 4,
  kFetchTt = 5,
  kTtData = 6,
  kFetchDn = 7,
  kDnData = 8,
  kFetchStrace = 9,
  kStraceData = 10,
  kStats = 11,       // {now:f64} — advance to now, report cluster stats
  kStatsData = 12,   // encoded ClusterStats
  kShutdown = 13,    // ask the daemon to exit after replying
  kShutdownAck = 14,
  kError = 15,       // {code:u32, message:string}
  // Aggregation-tier protocol (root <-> asdf_aggd), DESIGN.md §12.
  kFetchSummary = 16,  // {channel:u32 (0=bb, 1=wb), since:f64}
  kSummaryData = 17,   // {count:u32, count x {time:f64, packed:f64vec}}
};

/// Application-level error codes carried by kError frames.
enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,       // malformed payload for the message type
  kUnknownNode = 2,      // node id outside the served cluster
  kVersionSkew = 3,      // client hello declared an unsupported version
  kUnsupported = 4,      // message type not served by this source
  kInternal = 5,
};

/// Request and response message types of each collection channel,
/// indexed by rpc::CollectKind.
struct CollectMessages {
  MsgType request;
  MsgType response;
};
inline constexpr CollectMessages kCollectMessages[rpc::kCollectKindCount] = {
    {MsgType::kFetchSadc, MsgType::kSadcData},
    {MsgType::kFetchTt, MsgType::kTtData},
    {MsgType::kFetchDn, MsgType::kDnData},
    {MsgType::kFetchStrace, MsgType::kStraceData},
};

/// What a daemon's kHelloAck announces after the version: how many
/// members it serves (slaves, or an aggregator's group size), its
/// seed, and its source kind ("sim", "proc", "agg").
struct HelloAck {
  int members = 0;
  std::uint64_t seed = 0;
  std::string source;
};

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Serializes one frame (header + payload) ready for write().
std::vector<std::uint8_t> encodeFrame(MsgType type,
                                      const std::uint8_t* payload,
                                      std::size_t size);
std::vector<std::uint8_t> encodeFrame(MsgType type, const rpc::Encoder& enc);

/// Appends one frame (header + payload) to `out` without allocating a
/// temporary — the server's batched outbound path encodes straight
/// into the per-connection send buffer.
void encodeFrameInto(std::vector<std::uint8_t>& out, MsgType type,
                     const std::uint8_t* payload, std::size_t size);

/// Writes just the 16-byte header for a payload into `header` (caller
/// provides kFrameHeaderBytes of space, typically on the stack); the
/// payload itself can then go out via writev scatter-gather without
/// ever being copied next to the header.
void encodeFrameHeader(std::uint8_t* header, MsgType type,
                       const std::uint8_t* payload, std::size_t size);

/// Convenience: an error frame with code + human-readable message.
std::vector<std::uint8_t> encodeErrorFrame(ErrorCode code,
                                           const std::string& message);

class FrameDecoder {
 public:
  enum class Error {
    kNone = 0,
    kBadMagic,
    kBadVersion,
    kOversized,  // declared payload length > kMaxFramePayloadBytes
    kBadCrc,
  };

  /// Appends raw stream bytes. Returns false once the stream is
  /// poisoned (error() != kNone); further feeds are ignored.
  bool feed(const std::uint8_t* data, std::size_t size);

  /// Pops the next complete frame; false when none is pending. The
  /// payload is copied with assign(), so a caller that reuses the same
  /// Frame object allocates nothing once its capacity has warmed up —
  /// validated frames live in the stream buffer until surfaced, as
  /// {type, offset, size} index entries rather than per-frame copies.
  bool next(Frame& out);

  Error error() const { return error_; }
  long framesDecoded() const { return framesDecoded_; }
  /// Bytes buffered but not yet surfaced via next().
  std::size_t pendingBytes() const { return buf_.size() - consumed_; }

 private:
  struct Pending {
    MsgType type;
    std::uint32_t offset;  // payload start within buf_
    std::uint32_t size;
  };

  bool tryAssemble();

  std::vector<std::uint8_t> buf_;
  std::vector<Pending> pending_;
  std::size_t nextPending_ = 0;  // index into pending_ of next frame
  std::size_t parsePos_ = 0;     // first unvalidated byte in buf_
  std::size_t consumed_ = 0;     // bytes already handed out via next()
  Error error_ = Error::kNone;
  long framesDecoded_ = 0;
};

const char* frameErrorName(FrameDecoder::Error e);

}  // namespace asdf::net
