#include "faults/scenarios.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/error.h"
#include "metrics/os_model.h"

namespace asdf::faults {
namespace {

std::string formatted(const char* fmt, double a, double b = 0.0,
                      double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return std::string(buf);
}

}  // namespace

const char* scenarioName(ScenarioClass cls) {
  switch (cls) {
    case ScenarioClass::kNone:
      return "none";
    case ScenarioClass::kRackPartition:
      return "RackPartition";
    case ScenarioClass::kCascadeHotspot:
      return "CascadeHotspot";
    case ScenarioClass::kNoisyNeighbor:
      return "NoisyNeighbor";
    case ScenarioClass::kGrayFailure:
      return "GrayFailure";
  }
  return "unknown";
}

ScenarioClass scenarioFromName(const std::string& name) {
  for (ScenarioClass c :
       {ScenarioClass::kNone, ScenarioClass::kRackPartition,
        ScenarioClass::kCascadeHotspot, ScenarioClass::kNoisyNeighbor,
        ScenarioClass::kGrayFailure}) {
    if (name == scenarioName(c)) return c;
  }
  if (name.empty()) return ScenarioClass::kNone;
  if (name == "partition") return ScenarioClass::kRackPartition;
  if (name == "cascade") return ScenarioClass::kCascadeHotspot;
  if (name == "noisy-neighbor") return ScenarioClass::kNoisyNeighbor;
  if (name == "gray") return ScenarioClass::kGrayFailure;
  throw ConfigError("unknown scenario name '" + name + "'");
}

const std::vector<ScenarioClass>& allScenarios() {
  static const std::vector<ScenarioClass> kAll = {
      ScenarioClass::kRackPartition,
      ScenarioClass::kCascadeHotspot,
      ScenarioClass::kNoisyNeighbor,
      ScenarioClass::kGrayFailure,
  };
  return kAll;
}

void validateScenario(const ScenarioSpec& spec,
                      const topology::ClusterLayout& layout) {
  if (spec.cls == ScenarioClass::kNone) return;
  const std::string name = scenarioName(spec.cls);
  if (spec.startTime < 0.0) {
    throw ConfigError("scenario " + name + ": startTime must be >= 0");
  }
  if (spec.endTime != kNoTime && spec.endTime <= spec.startTime) {
    throw ConfigError("scenario " + name + ": endTime must follow startTime");
  }
  const bool needsUplinks = spec.cls != ScenarioClass::kGrayFailure;
  if (needsUplinks && layout.flat()) {
    throw ConfigError("scenario " + name +
                      " contends on rack uplinks and needs racks >= 2 "
                      "(got a flat topology)");
  }
  if (spec.rack < 0 || spec.rack >= layout.racks()) {
    throw ConfigError("scenario " + name + ": rack " +
                      std::to_string(spec.rack) + " out of range [0, " +
                      std::to_string(layout.racks()) + ")");
  }
  if (spec.node < 1 || spec.node > layout.slaves()) {
    throw ConfigError("scenario " + name + ": node " +
                      std::to_string(spec.node) + " out of range [1, " +
                      std::to_string(layout.slaves()) + "]");
  }
  if (layout.rackOf(spec.node) != spec.rack) {
    throw ConfigError("scenario " + name + ": node " +
                      std::to_string(spec.node) + " is not in rack " +
                      std::to_string(spec.rack));
  }
  if (spec.cls == ScenarioClass::kRackPartition &&
      (spec.partitionResidualFactor < 0.0 ||
       spec.partitionResidualFactor >= 1.0)) {
    throw ConfigError("scenario " + name +
                      ": partitionResidualFactor must be in [0, 1)");
  }
  if (spec.cls == ScenarioClass::kNoisyNeighbor) {
    if (spec.noisyTenants < 1 ||
        spec.noisyTenants > layout.rackSize(spec.rack)) {
      throw ConfigError(
          "scenario " + name + ": noisyTenants must be in [1, " +
          std::to_string(layout.rackSize(spec.rack)) + "] for rack " +
          std::to_string(spec.rack));
    }
  }
}

ScenarioInjector::ScenarioInjector(hadoop::Cluster& cluster,
                                   ScenarioSpec spec)
    : cluster_(cluster),
      spec_(spec),
      rng_(spec.seed * 2654435761ULL + 1013904223ULL),
      cascadeHog_(spec.cascadeDiskBytes) {
  if (spec_.cls == ScenarioClass::kNone) return;
  const topology::ClusterLayout& layout = cluster_.layout();
  // Resolve placement defaults: the last rack (exercising ragged
  // layouts), and a rack's first node.
  if (spec_.rack < 0) {
    spec_.rack = spec_.node != kInvalidNode ? layout.rackOf(spec_.node)
                                            : layout.racks() - 1;
  }
  if (spec_.node == kInvalidNode && spec_.rack >= 0 &&
      spec_.rack < layout.racks()) {
    spec_.node = layout.hostId(spec_.rack, 0);
  }
  validateScenario(spec_, layout);
}

ScenarioInjector::~ScenarioInjector() {
  if (hookId_ >= 0) cluster_.removeTickHook(hookId_);
}

void ScenarioInjector::arm() {
  if (spec_.cls == ScenarioClass::kNone) return;
  cluster_.engine().scheduleAt(spec_.startTime, [this] { activate(); });
  if (spec_.endTime != kNoTime) {
    cluster_.engine().scheduleAt(spec_.endTime, [this] { deactivate(); });
  }
}

std::vector<int> ScenarioInjector::culpritIndices() const {
  std::vector<int> out;
  const topology::ClusterLayout& layout = cluster_.layout();
  switch (spec_.cls) {
    case ScenarioClass::kNone:
      break;
    case ScenarioClass::kRackPartition:
      for (NodeId id : layout.rackNodes(spec_.rack)) {
        out.push_back(static_cast<int>(id) - 1);
      }
      break;
    case ScenarioClass::kCascadeHotspot:
    case ScenarioClass::kGrayFailure:
      out.push_back(static_cast<int>(spec_.node) - 1);
      break;
    case ScenarioClass::kNoisyNeighbor: {
      // Same tenant selection as installNoisyHook: the rack's nodes,
      // rotated so spec.node leads, first noisyTenants of them.
      const std::vector<NodeId> rack = layout.rackNodes(spec_.rack);
      const auto at = std::find(rack.begin(), rack.end(), spec_.node);
      const std::size_t start =
          static_cast<std::size_t>(at - rack.begin());
      for (int i = 0; i < spec_.noisyTenants; ++i) {
        out.push_back(static_cast<int>(
                          rack[(start + static_cast<std::size_t>(i)) %
                               rack.size()]) -
                      1);
      }
      break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ScenarioInjector::logEvent(SimTime time, std::string what) {
  events_.push_back(ScenarioEvent{time, std::move(what)});
}

void ScenarioInjector::activate() {
  if (active_) return;
  active_ = true;
  const SimTime now = cluster_.engine().now();
  switch (spec_.cls) {
    case ScenarioClass::kNone:
      break;
    case ScenarioClass::kRackPartition: {
      topology::UplinkPlane* uplinks = cluster_.uplinks();
      assert(uplinks != nullptr);
      uplinks->scaleRack(spec_.rack, spec_.partitionResidualFactor);
      logEvent(now, "partition rack=" + std::to_string(spec_.rack) +
                        formatted(" residual_bytes_per_sec=%.0f",
                                  uplinks->capacity(spec_.rack)));
      break;
    }
    case ScenarioClass::kCascadeHotspot:
      installCascadeHook();
      logEvent(now,
               "cascade hog node=" + std::to_string(spec_.node) +
                   " rack=" + std::to_string(spec_.rack) +
                   formatted(" repair_bytes_per_sec=%.0f peers=%.0f",
                             spec_.cascadeRepairBytesPerSec,
                             static_cast<double>(repairFlows_.size())));
      break;
    case ScenarioClass::kNoisyNeighbor:
      installNoisyHook();
      logEvent(now, "noisy tenants=" + std::to_string(spec_.noisyTenants) +
                        " rack=" + std::to_string(spec_.rack));
      break;
    case ScenarioClass::kGrayFailure:
      installGrayHook();
      logEvent(now,
               "gray node=" + std::to_string(spec_.node) +
                   formatted(" disk_factor=%.2f stall_p=%.2f",
                             spec_.grayDiskFactor,
                             spec_.grayStallProbability));
      break;
  }
}

void ScenarioInjector::deactivate() {
  if (!active_) return;
  active_ = false;
  endedAt_ = cluster_.engine().now();
  const SimTime now = endedAt_;
  if (hookId_ >= 0) {
    cluster_.removeTickHook(hookId_);
    hookId_ = -1;
  }
  switch (spec_.cls) {
    case ScenarioClass::kNone:
      break;
    case ScenarioClass::kRackPartition: {
      topology::UplinkPlane* uplinks = cluster_.uplinks();
      assert(uplinks != nullptr);
      uplinks->restoreRack(spec_.rack);
      logEvent(now, "partition healed rack=" + std::to_string(spec_.rack));
      break;
    }
    case ScenarioClass::kCascadeHotspot:
      logEvent(now, formatted("cascade ended written_bytes=%.0f",
                              cascadeHog_.written()));
      break;
    case ScenarioClass::kNoisyNeighbor:
      logEvent(now, "noisy tenants evicted");
      break;
    case ScenarioClass::kGrayFailure: {
      hadoop::Node& node = cluster_.node(spec_.node);
      if (grayOriginalDiskCapacity_ > 0.0) {
        node.disk().setCapacity(grayOriginalDiskCapacity_);
        grayOriginalDiskCapacity_ = -1.0;
      }
      logEvent(now, formatted("gray ended stalls=%.0f",
                              static_cast<double>(grayStallCount_)));
      break;
    }
  }
}

void ScenarioInjector::installCascadeHook() {
  hadoop::Node& hog = cluster_.node(spec_.node);
  const topology::ClusterLayout& layout = cluster_.layout();
  // Repair sources: the hog's rack peers, each pushing re-replication
  // traffic through the rack's shared uplink toward the next rack.
  const int dstRack = (spec_.rack + 1) % layout.racks();
  std::vector<NodeId> peers;
  for (NodeId id : layout.rackNodes(spec_.rack)) {
    if (id != spec_.node) peers.push_back(id);
  }
  repairFlows_.clear();
  for (NodeId peer : peers) {
    RepairFlow rf;
    rf.peer = peer;
    repairFlows_.push_back(rf);
  }
  const std::vector<NodeId> dstNodes = layout.rackNodes(dstRack);

  hadoop::Cluster::TickHook hook;
  hook.request = [this, &hog, dstRack](SimTime) {
    if (!active_) return;
    cascadeHog_.request(hog);  // the Table 2 DiskHog's writer
    topology::UplinkPlane* uplinks = cluster_.uplinks();
    for (RepairFlow& rf : repairFlows_) {
      hadoop::Node& peer = cluster_.node(rf.peer);
      rf.hNic = peer.nic().request(spec_.cascadeRepairBytesPerSec);
      rf.flow = uplinks->request(spec_.rack, dstRack,
                                 spec_.cascadeRepairBytesPerSec);
    }
  };
  hook.advance = [this, &hog, dstNodes](SimTime) {
    if (!active_) return;
    cascadeHog_.advance(hog);
    topology::UplinkPlane* uplinks = cluster_.uplinks();
    for (RepairFlow& rf : repairFlows_) {
      if (rf.hNic < 0) continue;
      hadoop::Node& peer = cluster_.node(rf.peer);
      const double moved = std::min(peer.nic().granted(rf.hNic),
                                    uplinks->granted(rf.flow));
      peer.addDiskRead(moved);
      peer.addNetTx(moved);
      peer.addCpuSystem(0.05);
      // The reconstructed replicas land spread across the destination
      // rack; per-node the trickle is even.
      for (NodeId dst : dstNodes) {
        cluster_.node(dst).addNetRx(moved /
                                    static_cast<double>(dstNodes.size()));
      }
      rf.hNic = -1;
    }
    if (cascadeHog_.done()) deactivate();
  };
  hookId_ = cluster_.addTickHook(std::move(hook));
}

void ScenarioInjector::installNoisyHook() {
  const topology::ClusterLayout& layout = cluster_.layout();
  const std::vector<NodeId> rack = layout.rackNodes(spec_.rack);
  const auto at = std::find(rack.begin(), rack.end(), spec_.node);
  const std::size_t start = static_cast<std::size_t>(at - rack.begin());
  tenants_.clear();
  for (int i = 0; i < spec_.noisyTenants; ++i) {
    Tenant t;
    t.node = rack[(start + static_cast<std::size_t>(i)) % rack.size()];
    tenants_.push_back(t);
  }
  const int dstRack = (spec_.rack + 1) % layout.racks();

  hadoop::Cluster::TickHook hook;
  hook.request = [this, dstRack](SimTime now) {
    if (!active_) return;
    topology::UplinkPlane* uplinks = cluster_.uplinks();
    for (Tenant& t : tenants_) {
      // One draw per tenant per tick: the on/off chain's path is a
      // pure function of the scenario seed.
      const bool flip = rng_.bernoulli(t.burst ? spec_.noisyBurstOffProbability
                                               : spec_.noisyBurstOnProbability);
      if (flip) {
        t.burst = !t.burst;
        logEvent(now, "noisy node=" + std::to_string(t.node) + " burst=" +
                          (t.burst ? "on" : "off"));
      }
      t.hCpu = -1;
      t.hNic = -1;
      t.flow = topology::UplinkFlow{};
      if (!t.burst) continue;
      hadoop::Node& node = cluster_.node(t.node);
      t.hCpu = node.cpu().request(spec_.noisyCpuCores);
      t.hNic = node.nic().request(spec_.noisyTxBytesPerSec);
      t.flow = uplinks->request(spec_.rack, dstRack,
                                spec_.noisyTxBytesPerSec);
    }
  };
  hook.advance = [this](SimTime) {
    if (!active_) return;
    topology::UplinkPlane* uplinks = cluster_.uplinks();
    for (Tenant& t : tenants_) {
      if (t.hCpu < 0) continue;
      hadoop::Node& node = cluster_.node(t.node);
      const double cpu = node.cpu().granted(t.hCpu);
      const double moved = std::min(node.nic().granted(t.hNic),
                                    uplinks->granted(t.flow));
      node.addCpuUser(cpu);
      node.addNetTx(moved);
      node.addRunnable(2);
      node.addProcesses(1);
      node.addMemUsed(4.0e8);
      metrics::ProcessActivity p;
      p.name = "tenant";
      p.cpuUserCores = cpu;
      p.writeBytes = 0.0;
      p.rssBytes = 4.0e8;
      p.threads = 4;
      p.fds = 12;
      node.addTrackedProcess(p);
      t.hCpu = -1;
    }
  };
  hookId_ = cluster_.addTickHook(std::move(hook));
}

void ScenarioInjector::installGrayHook() {
  hadoop::Node& node = cluster_.node(spec_.node);
  grayOriginalDiskCapacity_ = node.disk().capacity();
  node.disk().setCapacity(
      std::max(1.0, grayOriginalDiskCapacity_ * spec_.grayDiskFactor));

  hadoop::Cluster::TickHook hook;
  hook.request = [this, &node](SimTime) {
    if (!active_) return;
    grayStallThisTick_ = rng_.bernoulli(spec_.grayStallProbability);
    grayCpuHandle_ =
        grayStallThisTick_ ? node.cpu().request(spec_.grayStallCores) : -1;
  };
  hook.advance = [this, &node](SimTime now) {
    if (!active_ || !grayStallThisTick_) return;
    const double got = node.cpu().granted(grayCpuHandle_);
    node.addCpuIowait(got);
    node.addRunnable(1);
    ++grayStallCount_;
    grayCpuHandle_ = -1;
    grayStallThisTick_ = false;
    // A sparse breadcrumb trail keeps the event log a sharp
    // determinism probe without swamping it.
    if (grayStallCount_ % 10 == 1) {
      logEvent(now, formatted("gray stall count=%.0f",
                              static_cast<double>(grayStallCount_)));
    }
  };
  hookId_ = cluster_.addTickHook(std::move(hook));
}

}  // namespace asdf::faults
