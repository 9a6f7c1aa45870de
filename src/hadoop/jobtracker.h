// The JobTracker: job admission, heartbeat-driven task scheduling with
// data-locality preference, failure retries, and speculative
// execution — the fault-tolerance machinery the paper's Section 4.1
// describes ("heartbeats, re-execution of failed tasks and data
// replication").
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/types.h"
#include "hadoop/job.h"
#include "hadoop/tasktracker.h"

namespace asdf::hadoop {

class JobTracker {
 public:
  JobTracker(Cluster& cluster, NameNode& nameNode);

  /// Wires the slave set (done once by the Cluster after construction).
  void setTaskTrackers(std::vector<TaskTracker*> tts);

  /// Admits a job; input blocks are created and placed immediately.
  Job& submit(JobSpec spec, SimTime now);

  /// Processes one TaskTracker heartbeat: absorbs its report, then
  /// fills its free slots. Returns the number of tasks assigned.
  int processHeartbeat(TaskTracker& tt, SimTime now);

  /// Periodic speculative-execution scan: re-queues tasks whose sole
  /// running attempt is an outlier versus completed peers.
  void checkSpeculation(SimTime now);

  /// Mitigation hook (Section 5): a blacklisted TaskTracker keeps
  /// heartbeating and reporting, but receives no further tasks.
  void blacklistNode(NodeId node);
  bool isBlacklisted(NodeId node) const;
  std::size_t blacklistedCount() const { return blacklist_.size(); }

  const std::vector<std::unique_ptr<Job>>& activeJobs() const {
    return active_;
  }
  const std::vector<std::unique_ptr<Job>>& completedJobs() const {
    return completed_;
  }
  int activeJobCount() const { return static_cast<int>(active_.size()); }
  long jobsSubmitted() const { return jobsSubmitted_; }
  long jobsCompleted() const { return jobsCompleted_; }
  long speculativeLaunches() const { return speculativeLaunches_; }

  /// Invoked when a job finishes (workload generator, output cleanup).
  std::function<void(Job&, SimTime)> onJobComplete;

 private:
  void applyReport(const TaskTracker::Report& report, SimTime now);
  void finishJobIfComplete(Job& job, SimTime now);
  bool findMapWork(NodeId node, Job*& job, int& taskIndex);
  bool findReduceWork(Job*& job, int& taskIndex);
  void killOtherAttempts(Job& job, bool isMap, int taskIndex, SimTime now);
  Job* findActive(JobId id);

  Cluster& cluster_;
  NameNode& nameNode_;
  std::vector<TaskTracker*> tts_;
  std::vector<std::unique_ptr<Job>> active_;
  std::vector<std::unique_ptr<Job>> completed_;
  std::set<NodeId> blacklist_;
  JobId nextJobId_ = 1;
  long jobsSubmitted_ = 0;
  long jobsCompleted_ = 0;
  long speculativeLaunches_ = 0;
};

}  // namespace asdf::hadoop
