// The TaskTracker daemon: hosts task attempts in map/reduce slots,
// runs them each tick, and reports outcomes to the JobTracker on its
// heartbeat (Hadoop reports status piggybacked on heartbeats, so a
// completion becomes visible to the scheduler only at the next beat).
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "hadoop/config.h"
#include "hadoop/node.h"
#include "hadoop/task.h"

namespace asdf::hadoop {

class TaskTracker {
 public:
  TaskTracker(Cluster& cluster, Node& node);

  Node& node() { return node_; }
  NodeId nodeId() const { return node_.id(); }

  int freeMapSlots() const;
  int freeReduceSlots() const;
  int runningMapCount() const;
  int runningReduceCount() const;

  /// Launches a new attempt in a free slot (the JobTracker calls this
  /// during heartbeat processing).
  TaskAttempt& launch(Job& job, bool isMap, int taskIndex, SimTime now);

  /// Tick protocol, driven by the Cluster.
  void requestResources(SimTime now);
  void advance(SimTime now, double dt);

  /// Outcomes accumulated since the last heartbeat.
  struct Report {
    struct Entry {
      JobId jobId;
      bool isMap;
      int taskIndex;
      bool failed;
      double duration;
      NodeId node;
    };
    std::vector<Entry> finished;
  };
  Report takeReport();

  /// Kills a running attempt of the given task (speculative loser or
  /// obsolete attempt); returns true when one was found.
  bool killAttempt(JobId jobId, bool isMap, int taskIndex, SimTime now);

  const std::vector<std::unique_ptr<TaskAttempt>>& running() const {
    return running_;
  }

  /// Cumulative counters (for tests and the harness).
  long completedTasks() const { return completedTasks_; }
  long failedTasks() const { return failedTasks_; }

 private:
  Cluster& cluster_;
  Node& node_;
  std::vector<std::unique_ptr<TaskAttempt>> running_;
  Report pending_;
  long completedTasks_ = 0;
  long failedTasks_ = 0;
};

}  // namespace asdf::hadoop
