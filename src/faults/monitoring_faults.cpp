#include "faults/monitoring_faults.h"

namespace asdf::faults {

const char* monitoringFaultName(MonitoringFaultKind kind) {
  switch (kind) {
    case MonitoringFaultKind::kNone:
      return "none";
    case MonitoringFaultKind::kCrash:
      return "crash";
    case MonitoringFaultKind::kHang:
      return "hang";
    case MonitoringFaultKind::kSlow:
      return "slow";
    case MonitoringFaultKind::kPartition:
      return "partition";
  }
  return "unknown";
}

MonitoringFaultInjector::MonitoringFaultInjector(
    sim::SimEngine& engine, rpc::MonitoringFaultBoard& board,
    MonitoringFaultSpec spec)
    : engine_(engine), board_(board), spec_(spec) {}

void MonitoringFaultInjector::arm() {
  if (spec_.kind == MonitoringFaultKind::kNone) return;
  engine_.scheduleAt(spec_.startTime, [this] {
    active_ = true;
    apply(true);
  });
  if (spec_.endTime != kNoTime) {
    engine_.scheduleAt(spec_.endTime, [this] {
      active_ = false;
      apply(false);
    });
  }
}

void MonitoringFaultInjector::apply(bool on) {
  if (spec_.kind == MonitoringFaultKind::kPartition) {
    board_.setPartitioned(spec_.node, on);
    return;
  }
  std::vector<rpc::Daemon> targets;
  if (spec_.allDaemons) {
    targets = {rpc::Daemon::kSadc, rpc::Daemon::kHadoopLog,
               rpc::Daemon::kStrace};
  } else {
    targets = {spec_.daemon};
  }
  for (rpc::Daemon d : targets) {
    switch (spec_.kind) {
      case MonitoringFaultKind::kCrash:
        board_.setCrashed(spec_.node, d, on);
        break;
      case MonitoringFaultKind::kHang:
        board_.setHung(spec_.node, d, on);
        break;
      case MonitoringFaultKind::kSlow:
        board_.setSlowFactor(spec_.node, d, on ? spec_.slowFactor : 1.0);
        break;
      case MonitoringFaultKind::kNone:
      case MonitoringFaultKind::kPartition:
        break;
    }
  }
}

}  // namespace asdf::faults
