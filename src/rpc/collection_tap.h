// Collection-plane observation hook (the flight recorder's tap point).
//
// The archive subsystem (src/archive/) needs the exact payload bytes
// every transport serves, but it sits *above* rpc and net in the
// library layering (archive -> net -> rpc), so neither layer may name
// an archive type. Instead the collection plane exposes this small
// observer interface and two taps implement "record what was
// collected" without knowing who is listening:
//
//   * RpcClient fetch rounds (control node: sim, live and replay runs
//     all collect through one client) — RpcClient::setObserver
//   * RpcdServer responses (daemon side) — RpcdOptions::observer
//
// A sample carries the rpc-encoded payload bytes — the same bytes the
// per-channel accounting charges — plus the round outcome (attempts,
// ok), which is what lets a replayed run reproduce retry/breaker
// behaviour and Table 3/4 numbers byte-identically.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace asdf::rpc {

/// The four collection channels a sample can come from. Values are
/// stable on-disk identifiers (archive format v1) — append only.
enum class CollectKind : int { kSadc = 0, kTt = 1, kDn = 2, kStrace = 3 };
inline constexpr int kCollectKindCount = 4;

inline const char* collectKindName(CollectKind k) {
  switch (k) {
    case CollectKind::kSadc:
      return "sadc";
    case CollectKind::kTt:
      return "tt";
    case CollectKind::kDn:
      return "dn";
    case CollectKind::kStrace:
      return "strace";
  }
  return "unknown";
}

/// One observed collection round. `payload`/`payloadSize` point at the
/// rpc-encoded response bytes (empty when !ok) and are valid only for
/// the duration of the onSample() call — observers must copy.
struct CollectSample {
  CollectKind kind = CollectKind::kSadc;
  NodeId node = 0;
  SimTime now = kNoTime;        // module-schedule time of the fetch
  SimTime watermark = kNoTime;  // hadoop-log channels only
  int attempts = 1;             // 0 = fast-failed on an open breaker
  bool ok = true;
  const std::uint8_t* payload = nullptr;
  std::size_t payloadSize = 0;
};

/// Implemented by archive::ArchiveWriter. onSample() may be called
/// from pool threads (per-node exclusivity domains still serialize
/// samples of one node) — implementations must be thread-safe.
class CollectionObserver {
 public:
  virtual ~CollectionObserver() = default;
  virtual void onSample(const CollectSample& sample) = 0;
};

}  // namespace asdf::rpc
