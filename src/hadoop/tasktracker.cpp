#include "hadoop/tasktracker.h"

#include <algorithm>
#include <cassert>

#include "hadoop/cluster.h"

namespace asdf::hadoop {

TaskTracker::TaskTracker(Cluster& cluster, Node& node)
    : cluster_(cluster), node_(node) {}

int TaskTracker::runningMapCount() const {
  int n = 0;
  for (const auto& a : running_) n += a->isMap() ? 1 : 0;
  return n;
}

int TaskTracker::runningReduceCount() const {
  return static_cast<int>(running_.size()) - runningMapCount();
}

int TaskTracker::freeMapSlots() const {
  return cluster_.params().mapSlots - runningMapCount();
}

int TaskTracker::freeReduceSlots() const {
  return cluster_.params().reduceSlots - runningReduceCount();
}

TaskAttempt& TaskTracker::launch(Job& job, bool isMap, int taskIndex,
                                 SimTime now) {
  assert((isMap ? freeMapSlots() : freeReduceSlots()) > 0);
  const int serial = job.nextAttemptSerial(isMap, taskIndex);
  auto attempt = std::make_unique<TaskAttempt>(cluster_, job, isMap,
                                               taskIndex, serial, node_);
  attempt->start(now);
  job.noteAttemptStarted(isMap, taskIndex);
  running_.push_back(std::move(attempt));
  return *running_.back();
}

void TaskTracker::requestResources(SimTime now) {
  for (auto& a : running_) a->requestResources(now);
  node_.setRunningTasks(static_cast<int>(running_.size()));
}

void TaskTracker::advance(SimTime now, double dt) {
  for (std::size_t i = 0; i < running_.size();) {
    TaskAttempt& a = *running_[i];
    const TaskOutcome outcome = a.advance(now, dt);
    if (outcome == TaskOutcome::kRunning) {
      ++i;
      continue;
    }
    Report::Entry e;
    e.jobId = a.job().id();
    e.isMap = a.isMap();
    e.taskIndex = a.taskIndex();
    e.failed = outcome == TaskOutcome::kFailed;
    e.duration = a.runtime(now);
    e.node = node_.id();
    pending_.finished.push_back(e);
    a.job().noteAttemptEnded(a.isMap(), a.taskIndex());
    if (e.failed) {
      ++failedTasks_;
    } else {
      ++completedTasks_;
    }
    running_.erase(running_.begin() + static_cast<long>(i));
  }
}

TaskTracker::Report TaskTracker::takeReport() {
  Report out = std::move(pending_);
  pending_ = Report{};
  return out;
}

bool TaskTracker::killAttempt(JobId jobId, bool isMap, int taskIndex,
                              SimTime now) {
  for (std::size_t i = 0; i < running_.size(); ++i) {
    TaskAttempt& a = *running_[i];
    if (a.job().id() == jobId && a.isMap() == isMap &&
        a.taskIndex() == taskIndex) {
      a.kill(now);
      a.job().noteAttemptEnded(isMap, taskIndex);
      running_.erase(running_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

}  // namespace asdf::hadoop
