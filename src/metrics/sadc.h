// libsadc — the collection-side API over the OS metric model.
//
// The paper modified sysstat into a library ("libsadc") that returns
// system-wide and per-process statistics as C structures; a per-node
// sadc_rpcd daemon wraps it. Here, SadcProvider is the interface that
// a monitored node implements (the simulated node keeps the latest
// NodeOsModel snapshot), and the helpers below flatten snapshots into
// the metric vectors the analysis modules consume.
#pragma once

#include <string>
#include <vector>

#include "metrics/os_model.h"

namespace asdf::metrics {

/// The interface a monitored node exposes to the sadc collection
/// machinery: "give me the latest 1-second sample".
class SadcProvider {
 public:
  virtual ~SadcProvider() = default;
  virtual const SadcSnapshot& sadcCollect() const = 0;
};

/// Flattens a snapshot into a single vector: the 64 node-level metrics
/// followed by the 18 NIC metrics. (Process metrics are reported
/// separately per process and are not part of the black-box node
/// vector, matching the paper's per-node analysis.)
std::vector<double> flattenNodeVector(const SadcSnapshot& snap);
/// The same, into `out` (its capacity is reused).
void flattenNodeVector(const SadcSnapshot& snap, std::vector<double>& out);

/// Names matching flattenNodeVector() order.
std::vector<std::string> flattenedNodeVectorNames();

/// Dimension of the flattened node vector (64 + 18).
inline constexpr std::size_t kFlatNodeVectorSize =
    kNodeMetricCount + kNicMetricCount;

}  // namespace asdf::metrics
