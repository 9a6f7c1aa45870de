// Partial-summary payloads and the aggregator's publication board
// (DESIGN.md §12).
//
// The aggregation tier ships one GroupSummary per analysis window
// upward. Its flat double-vector pack() form (analysis/partials.h) is
// the canonical layout; this header defines how that vector rides the
// CRC-framed wire ({time:f64, packed:f64vec} per window) and the byte
// constants both transports charge, so Table 4's tier-2 numbers agree
// between the simulated and live topologies per window. The
// SummaryBoard is the hand-off point inside an aggregator process:
// the pipeline's agg modules append windows, the serving loop
// (net::AggServer) drains them for the root.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "rpc/wire.h"

namespace asdf::rpc {

/// Summary channels multiplexed over one aggregator connection.
enum class SummaryChannel : std::uint32_t {
  kBlackBox = 0,
  kWhiteBox = 1,
};
inline constexpr int kSummaryChannelCount = 2;
/// Table 4 channel name of each summary channel, charged at tier 2.
inline constexpr const char* kSummaryChannelNames[kSummaryChannelCount] = {
    "bb-summary-tcp", "wb-summary-tcp"};

/// Request payload of a summary fetch (object id + operation name +
/// channel + watermark, ICE-style) — the tier-2 analogue of
/// kCollectRequestBytes, charged identically by both transports.
inline constexpr std::size_t kSummaryRequestBytes = 48;

/// One published summary window.
struct SummaryWindow {
  double time = 0.0;
  std::vector<double> packed;  // analysis::GroupSummary::pack() output
};

void encodeSummaryWindow(Encoder& enc, const SummaryWindow& window);
SummaryWindow decodeSummaryWindow(Decoder& dec);

/// Wire size of one encoded window: both tiers' accounting uses the
/// marshalled size, never sizeof() — identical across transports.
std::size_t summaryWindowWireBytes(std::size_t packedSize);

/// Thread-safe store of published windows, per channel. The pipeline
/// thread appends as analysis windows close; the serving thread copies
/// out everything past the requester's watermark. Windows are retained
/// for the run's lifetime (they are small — one per slide interval).
class SummaryBoard {
 public:
  void append(SummaryChannel channel, double time,
              const std::vector<double>& packed);

  /// Appends to `out` (cleared first) every window with time > since,
  /// in publication order. Returns the number of windows copied.
  std::size_t fetchSince(SummaryChannel channel, double since,
                         std::vector<SummaryWindow>& out) const;

  std::size_t windowCount(SummaryChannel channel) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SummaryWindow> channels_[kSummaryChannelCount];
};

}  // namespace asdf::rpc
