#include "topology/uplink.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace asdf::topology {

UplinkPlane::UplinkPlane(const ClusterLayout& layout,
                         double uplinkBytesPerSec)
    : base_(uplinkBytesPerSec) {
  assert(base_ > 0.0);
  tx_.reserve(static_cast<std::size_t>(layout.racks()));
  rx_.reserve(static_cast<std::size_t>(layout.racks()));
  for (int r = 0; r < layout.racks(); ++r) {
    tx_.emplace_back("uplink-tx-" + std::to_string(r), base_);
    rx_.emplace_back("uplink-rx-" + std::to_string(r), base_);
  }
}

void UplinkPlane::beginTick() {
  for (auto& r : tx_) r.beginTick();
  for (auto& r : rx_) r.beginTick();
}

void UplinkPlane::finalize() {
  for (auto& r : tx_) r.finalize();
  for (auto& r : rx_) r.finalize();
}

UplinkFlow UplinkPlane::request(int srcRack, int dstRack, double bytes) {
  UplinkFlow flow;
  if (srcRack < 0 || dstRack < 0 || srcRack == dstRack) return flow;
  assert(srcRack < racks() && dstRack < racks());
  flow.srcRack = srcRack;
  flow.dstRack = dstRack;
  flow.hTx = tx_[static_cast<std::size_t>(srcRack)].request(bytes);
  flow.hRx = rx_[static_cast<std::size_t>(dstRack)].request(bytes);
  return flow;
}

double UplinkPlane::granted(const UplinkFlow& flow) const {
  if (flow.inert()) return std::numeric_limits<double>::infinity();
  return std::min(
      tx_[static_cast<std::size_t>(flow.srcRack)].granted(flow.hTx),
      rx_[static_cast<std::size_t>(flow.dstRack)].granted(flow.hRx));
}

void UplinkPlane::scaleRack(int rack, double factor) {
  assert(rack >= 0 && rack < racks());
  const double capacity = std::max(1.0, base_ * factor);
  tx_[static_cast<std::size_t>(rack)].setCapacity(capacity);
  rx_[static_cast<std::size_t>(rack)].setCapacity(capacity);
}

double UplinkPlane::capacity(int rack) const {
  assert(rack >= 0 && rack < racks());
  return tx_[static_cast<std::size_t>(rack)].capacity();
}

double UplinkPlane::txGranted(int rack) const {
  assert(rack >= 0 && rack < racks());
  return tx_[static_cast<std::size_t>(rack)].totalGranted();
}

}  // namespace asdf::topology
