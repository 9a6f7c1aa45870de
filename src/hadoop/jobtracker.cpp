#include "hadoop/jobtracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/stats.h"
#include "hadoop/cluster.h"

namespace asdf::hadoop {
namespace {

// How many pending maps the scheduler scans looking for a data-local
// assignment before settling for the queue head.
constexpr int kLocalityScanLimit = 64;

}  // namespace

JobTracker::JobTracker(Cluster& cluster, NameNode& nameNode)
    : cluster_(cluster), nameNode_(nameNode) {}

void JobTracker::setTaskTrackers(std::vector<TaskTracker*> tts) {
  tts_ = std::move(tts);
}

Job& JobTracker::submit(JobSpec spec, SimTime now) {
  auto job = std::make_unique<Job>(nextJobId_++, std::move(spec),
                                   cluster_.params().blockBytes, nameNode_,
                                   cluster_.slaveCount(), cluster_.rng());
  job->submitTime = now;
  ++jobsSubmitted_;
  active_.push_back(std::move(job));
  return *active_.back();
}

Job* JobTracker::findActive(JobId id) {
  for (auto& j : active_) {
    if (j->id() == id) return j.get();
  }
  return nullptr;
}

void JobTracker::killOtherAttempts(Job& job, bool isMap, int taskIndex,
                                   SimTime now) {
  if (job.runningAttempts(isMap, taskIndex) == 0) return;
  for (TaskTracker* tt : tts_) {
    while (job.runningAttempts(isMap, taskIndex) > 0 &&
           tt->killAttempt(job.id(), isMap, taskIndex, now)) {
    }
  }
}

void JobTracker::applyReport(const TaskTracker::Report& report,
                             SimTime now) {
  for (const auto& e : report.finished) {
    Job* job = findActive(e.jobId);
    if (job == nullptr) continue;  // job already torn down
    if (e.failed) {
      job->noteFailure(e.isMap, e.taskIndex);
      if (job->failureCount(e.isMap, e.taskIndex) >=
          cluster_.params().maxTaskAttempts) {
        // Too many attempts: Hadoop would fail the job; we mark the
        // task done so the trace continues — the experiment cares
        // about per-node anomalies, not job verdicts.
        if (e.isMap) {
          job->completeMap(e.taskIndex, e.node, e.duration);
        } else {
          job->completeReduce(e.taskIndex, e.duration);
        }
      } else {
        auto& queue =
            e.isMap ? job->pendingMaps() : job->pendingReduces();
        queue.push_front(e.taskIndex);
      }
    } else {
      const bool firstFinish =
          e.isMap ? job->completeMap(e.taskIndex, e.node, e.duration)
                  : job->completeReduce(e.taskIndex, e.duration);
      if (firstFinish) {
        // Kill any speculative duplicates still running elsewhere.
        killOtherAttempts(*job, e.isMap, e.taskIndex, now);
        // Drop a stale pending (speculative) entry if one exists.
        auto& queue =
            e.isMap ? job->pendingMaps() : job->pendingReduces();
        queue.erase(std::remove(queue.begin(), queue.end(), e.taskIndex),
                    queue.end());
      }
    }
    finishJobIfComplete(*job, now);
  }
}

void JobTracker::finishJobIfComplete(Job& job, SimTime now) {
  if (!job.complete()) return;
  job.finishTime = now;
  ++jobsCompleted_;
  auto it = std::find_if(active_.begin(), active_.end(),
                         [&](const auto& p) { return p.get() == &job; });
  assert(it != active_.end());
  std::unique_ptr<Job> owned = std::move(*it);
  active_.erase(it);
  completed_.push_back(std::move(owned));
  if (onJobComplete) onJobComplete(*completed_.back(), now);
}

bool JobTracker::findMapWork(NodeId node, Job*& jobOut, int& taskOut) {
  for (auto& job : active_) {
    auto& pending = job->pendingMaps();
    if (pending.empty()) continue;
    // Prefer a map whose input block has a replica on this node.
    const int scan =
        std::min<int>(kLocalityScanLimit, static_cast<int>(pending.size()));
    for (int i = 0; i < scan; ++i) {
      const int idx = pending[static_cast<std::size_t>(i)];
      if (job->mapDone(idx)) continue;
      const auto& replicas = nameNode_.replicas(job->inputBlock(idx));
      if (std::find(replicas.begin(), replicas.end(), node) !=
          replicas.end()) {
        pending.erase(pending.begin() + i);
        jobOut = job.get();
        taskOut = idx;
        return true;
      }
    }
    // No local work: take the queue head.
    while (!pending.empty()) {
      const int idx = pending.front();
      pending.pop_front();
      if (!job->mapDone(idx)) {
        jobOut = job.get();
        taskOut = idx;
        return true;
      }
    }
  }
  return false;
}

bool JobTracker::findReduceWork(Job*& jobOut, int& taskOut) {
  for (auto& job : active_) {
    auto& pending = job->pendingReduces();
    if (pending.empty()) continue;
    const int slowstartMaps = static_cast<int>(std::ceil(
        cluster_.params().reduceSlowstart * job->numMaps()));
    if (job->completedMaps() < std::max(1, slowstartMaps)) continue;
    while (!pending.empty()) {
      const int idx = pending.front();
      pending.pop_front();
      if (!job->reduceDone(idx)) {
        jobOut = job.get();
        taskOut = idx;
        return true;
      }
    }
  }
  return false;
}

void JobTracker::blacklistNode(NodeId node) { blacklist_.insert(node); }

bool JobTracker::isBlacklisted(NodeId node) const {
  return blacklist_.count(node) != 0;
}

int JobTracker::processHeartbeat(TaskTracker& tt, SimTime now) {
  applyReport(tt.takeReport(), now);
  if (isBlacklisted(tt.nodeId())) return 0;

  int assigned = 0;
  for (int slot = tt.freeMapSlots(); slot > 0; --slot) {
    Job* job = nullptr;
    int taskIndex = -1;
    if (!findMapWork(tt.nodeId(), job, taskIndex)) break;
    tt.launch(*job, /*isMap=*/true, taskIndex, now);
    ++assigned;
  }
  for (int slot = tt.freeReduceSlots(); slot > 0; --slot) {
    Job* job = nullptr;
    int taskIndex = -1;
    if (!findReduceWork(job, taskIndex)) break;
    tt.launch(*job, /*isMap=*/false, taskIndex, now);
    ++assigned;
  }
  return assigned;
}

void JobTracker::checkSpeculation(SimTime now) {
  if (!cluster_.params().speculativeExecution) return;
  for (TaskTracker* tt : tts_) {
    for (const auto& attempt : tt->running()) {
      Job& job = attempt->job();
      const bool isMap = attempt->isMap();
      const int index = attempt->taskIndex();
      if (job.runningAttempts(isMap, index) != 1) continue;
      const auto& durations = isMap ? job.completedMapDurations()
                                    : job.completedReduceDurations();
      // With too few completed peers to estimate a median, fall back
      // to a generous absolute timeout so hung tasks in small jobs
      // (e.g. a one-reduce job) still get a backup eventually.
      const double threshold =
          durations.size() < 3
              ? 4.0 * cluster_.params().speculativeMinRuntime
              : std::max(cluster_.params().speculativeMinRuntime,
                         cluster_.params().speculativeRuntimeFactor *
                             median(durations));
      if (attempt->runtime(now) < threshold) continue;
      auto& queue = isMap ? job.pendingMaps() : job.pendingReduces();
      if (std::find(queue.begin(), queue.end(), index) != queue.end()) {
        continue;  // a backup is already queued
      }
      queue.push_front(index);
      ++speculativeLaunches_;
    }
  }
}

}  // namespace asdf::hadoop
