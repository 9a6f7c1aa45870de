// Per-rack shared uplink bandwidth plane (DESIGN.md §16).
//
// Each rack owns two ShareResources — uplink transmit (rack -> spine)
// and uplink receive (spine -> rack) — refreshed every simulator tick
// in lockstep with the node resources. A cross-rack byte stream
// registers one demand on its source rack's tx uplink and one on its
// destination rack's rx uplink; the stream's achievable rate is then
//
//   min(src NIC grant, src-rack uplink-tx grant,
//       dst-rack uplink-rx grant, dst NIC grant)
//
// so an oversubscribed or partitioned uplink throttles every crossing
// flow proportionally, exactly like the node-local resources throttle
// co-located tasks. Same-rack flows never touch the plane: on a flat
// topology (racks == 1) no UplinkPlane exists at all and every flow
// handle is inert, which keeps flat runs byte-identical to the
// pre-topology simulator (min(x, +inf) == x, and no RNG draw or
// resource handle order changes).
//
// Scenario hooks (scaleRack / restoreRack) rescale an uplink against
// its *base* capacity and restore it exactly, so a partition window
// heals to bit-identical bandwidth. Capacity is clamped to >= 1 B/s:
// ShareResource requires positive capacity, and a 1 B/s residual
// models the keepalive trickle a real partial partition leaks.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "sim/resources.h"
#include "topology/topology.h"

namespace asdf::topology {

/// Handle for one cross-rack flow's pair of uplink demands, valid for
/// the tick it was requested in. Default-constructed handles are
/// inert: granted() returns +infinity so callers can unconditionally
/// min() them into endpoint grants.
struct UplinkFlow {
  int srcRack = -1;
  int dstRack = -1;
  int hTx = -1;
  int hRx = -1;
  bool inert() const { return hTx < 0; }
};

class UplinkPlane {
 public:
  UplinkPlane(const ClusterLayout& layout, double uplinkBytesPerSec);

  int racks() const { return static_cast<int>(tx_.size()); }

  /// Tick protocol, driven by Cluster::tick in lockstep with nodes.
  void beginTick();
  void finalize();

  /// Registers a cross-rack demand of `bytes` for this tick. Returns
  /// an inert flow when the racks coincide or either end is
  /// off-fabric (master / out-of-range).
  UplinkFlow request(int srcRack, int dstRack, double bytes);

  /// min(tx grant, rx grant) for the flow; +infinity when inert.
  double granted(const UplinkFlow& flow) const;

  /// Scales a rack's uplink (both directions) to factor x its *base*
  /// capacity, clamped to >= 1 B/s. factor 1 restores exactly;
  /// repeated calls do not compound.
  void scaleRack(int rack, double factor);
  void restoreRack(int rack) { scaleRack(rack, 1.0); }

  double baseCapacity() const { return base_; }
  double capacity(int rack) const;
  double txGranted(int rack) const;

 private:
  double base_;
  std::vector<sim::ShareResource> tx_;
  std::vector<sim::ShareResource> rx_;
};

}  // namespace asdf::topology
