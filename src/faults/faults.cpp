#include "faults/faults.h"

#include <algorithm>

#include "common/error.h"
#include "metrics/os_model.h"

namespace asdf::faults {

const char* faultName(FaultType type) {
  switch (type) {
    case FaultType::kNone:
      return "none";
    case FaultType::kCpuHog:
      return "CPUHog";
    case FaultType::kDiskHog:
      return "DiskHog";
    case FaultType::kPacketLoss:
      return "PacketLoss";
    case FaultType::kHadoop1036:
      return "HADOOP-1036";
    case FaultType::kHadoop1152:
      return "HADOOP-1152";
    case FaultType::kHadoop2080:
      return "HADOOP-2080";
  }
  return "unknown";
}

FaultType faultFromName(const std::string& name) {
  for (FaultType t :
       {FaultType::kNone, FaultType::kCpuHog, FaultType::kDiskHog,
        FaultType::kPacketLoss, FaultType::kHadoop1036,
        FaultType::kHadoop1152, FaultType::kHadoop2080}) {
    if (name == faultName(t)) return t;
  }
  if (name.empty()) return FaultType::kNone;
  throw ConfigError("unknown fault name '" + name + "'");
}

const std::vector<FaultType>& allFaults() {
  static const std::vector<FaultType> kAll = {
      FaultType::kCpuHog,     FaultType::kDiskHog,
      FaultType::kPacketLoss, FaultType::kHadoop1036,
      FaultType::kHadoop1152, FaultType::kHadoop2080,
  };
  return kAll;
}

void validateFault(const FaultSpec& spec, int slaves) {
  if (spec.type == FaultType::kNone) return;
  if (spec.node < 1 || spec.node > slaves) {
    throw ConfigError(std::string("fault ") + faultName(spec.type) +
                      ": node " + std::to_string(spec.node) +
                      " out of range [1, " + std::to_string(slaves) + "]");
  }
}

FaultInjector::FaultInjector(hadoop::Cluster& cluster, FaultSpec spec)
    : cluster_(cluster), spec_(spec), diskHog_(spec.diskHogBytes) {
  validateFault(spec_, cluster.slaveCount());
}

FaultInjector::~FaultInjector() {
  if (hookId_ >= 0) cluster_.removeTickHook(hookId_);
}

void DiskHogWriter::request(hadoop::Node& node) {
  const double remaining = total_ - written_;
  if (remaining <= 0.0) return;
  // A dd-style sequential writer keeps the queue saturated: its
  // outstanding demand dwarfs the tasks' small spill/merge writes,
  // which is what starves them (the paper's "excessive messages
  // logged to file" symptom).
  handle_ =
      node.disk().request(std::min(remaining, 4.0 * node.disk().capacity()));
}

bool DiskHogWriter::advance(hadoop::Node& node) {
  if (handle_ < 0) return false;
  const double wrote = node.disk().granted(handle_);
  node.addDiskWrite(wrote);
  node.addCpuIowait(0.3);
  node.addCpuSystem(0.1);
  node.addProcesses(1);
  node.addMemUsed(3.0e7);
  written_ += wrote;
  metrics::ProcessActivity p;
  p.name = "diskhog";
  p.cpuSystemCores = 0.1;
  p.writeBytes = wrote;
  p.rssBytes = 3.0e7;
  p.threads = 1;
  p.fds = 4;
  node.addTrackedProcess(p);
  handle_ = -1;
  return true;
}

void FaultInjector::arm() {
  if (spec_.type == FaultType::kNone) return;
  cluster_.engine().scheduleAt(spec_.startTime, [this] { activate(); });
  if (spec_.endTime != kNoTime) {
    cluster_.engine().scheduleAt(spec_.endTime, [this] { deactivate(); });
  }
}

void FaultInjector::installHogHook() {
  hadoop::Node& node = cluster_.node(spec_.node);
  hadoop::Cluster::TickHook hook;
  if (spec_.type == FaultType::kCpuHog) {
    // The hog *achieves* ~70% utilization (the mailing-list report is
    // about observed CPU, not demand): under contention it escalates
    // its demand like a multi-threaded spinner grabbing extra share.
    hook.request = [this, &node](SimTime) {
      if (!active_) return;
      const double target =
          spec_.cpuHogUtilization * cluster_.params().cores;
      cpuDemand_ = std::clamp(
          cpuDemand_ * (lastAchieved_ > 1e-6 ? target / lastAchieved_ : 1.0),
          target, 3.0 * target);
      cpuHandle_ = node.cpu().request(cpuDemand_);
    };
    hook.advance = [this, &node](SimTime) {
      if (!active_ || cpuHandle_ < 0) return;
      const double got = node.cpu().granted(cpuHandle_);
      lastAchieved_ = got;
      node.addCpuUser(got);
      node.addRunnable(3);  // the hog's spinning threads
      node.addProcesses(1);
      node.addMemUsed(6.0e7);
      metrics::ProcessActivity p;
      p.name = "cpuhog";
      p.cpuUserCores = got;
      p.rssBytes = 6.0e7;
      p.threads = 3;
      p.fds = 6;
      node.addTrackedProcess(p);
      cpuHandle_ = -1;
    };
  } else if (spec_.type == FaultType::kDiskHog) {
    hook.request = [this, &node](SimTime) {
      if (active_) diskHog_.request(node);
    };
    hook.advance = [this, &node](SimTime) {
      if (!active_ || !diskHog_.advance(node)) return;
      if (diskHog_.done()) deactivate();  // the 20 GB write is finished
    };
  }
  hookId_ = cluster_.addTickHook(std::move(hook));
}

void FaultInjector::activate() {
  if (active_) return;
  active_ = true;
  hadoop::Node& node = cluster_.node(spec_.node);
  switch (spec_.type) {
    case FaultType::kNone:
      break;
    case FaultType::kCpuHog:
    case FaultType::kDiskHog:
      installHogHook();
      break;
    case FaultType::kPacketLoss:
      node.nic().setLossRate(spec_.packetLossRate);
      break;
    case FaultType::kHadoop1036:
      node.faults().mapHang = true;
      break;
    case FaultType::kHadoop1152:
      node.faults().reduceCopyFail = true;
      break;
    case FaultType::kHadoop2080:
      node.faults().reduceSortHang = true;
      break;
  }
}

void FaultInjector::deactivate() {
  if (!active_) return;
  active_ = false;
  endedAt_ = cluster_.engine().now();
  hadoop::Node& node = cluster_.node(spec_.node);
  switch (spec_.type) {
    case FaultType::kNone:
      break;
    case FaultType::kCpuHog:
    case FaultType::kDiskHog:
      if (hookId_ >= 0) {
        cluster_.removeTickHook(hookId_);
        hookId_ = -1;
      }
      break;
    case FaultType::kPacketLoss:
      node.nic().setLossRate(0.0);
      break;
    case FaultType::kHadoop1036:
      node.faults().mapHang = false;
      break;
    case FaultType::kHadoop1152:
      node.faults().reduceCopyFail = false;
      break;
    case FaultType::kHadoop2080:
      node.faults().reduceSortHang = false;
      break;
  }
}

}  // namespace asdf::faults
