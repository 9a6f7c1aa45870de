// The simulated Hadoop cluster: one master (JobTracker + NameNode) and
// N slaves (TaskTracker + DataNode), advanced in 1-second ticks on a
// SimEngine.
//
// Tick protocol (the order is what makes contention physical):
//   1. every node beginTick()                   (clear demands)
//   2. task attempts + fault hooks request resources
//   3. every node finalizeResources()           (proportional shares)
//   4. attempts + fault hooks advance on their grants
//   5. every node endTick()                     (roll into OS counters)
//
// TaskTracker heartbeats are separate staggered periodic events, so
// completions become visible to the scheduler with realistic
// heartbeat latency, and heartbeat RPC traffic lands between ticks.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hadoop/config.h"
#include "hadoop/hdfs.h"
#include "hadoop/jobtracker.h"
#include "hadoop/node.h"
#include "hadoop/task.h"
#include "hadoop/tasktracker.h"
#include "sim/engine.h"
#include "topology/topology.h"
#include "topology/uplink.h"

namespace asdf::hadoop {

class Cluster {
 public:
  Cluster(HadoopParams params, std::uint64_t seed, sim::SimEngine& engine);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Registers the tick / heartbeat / speculation events. Call once
  /// before running the engine.
  void start();

  /// Node by id: 0 is the master, 1..slaveCount the slaves.
  Node& node(NodeId id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return *nodes_[static_cast<std::size_t>(id)];
  }
  NameNode& nameNode() { return nameNode_; }
  const HadoopParams& params() const { return params_; }
  Rng& rng() { return rng_; }
  int slaveCount() const { return params_.slaveCount; }

  JobTracker& jobTracker() { return jobTracker_; }
  TaskTracker& taskTracker(NodeId id);
  sim::SimEngine& engine() { return engine_; }

  /// Rack fabric. uplinks() is null on flat (racks == 1) topologies.
  const topology::ClusterLayout& layout() const { return layout_; }
  topology::UplinkPlane* uplinks() { return uplinks_.get(); }

  /// Slave nodes 1..slaveCount, in id order.
  std::vector<Node*> slaveNodes();

  /// Whether every node computes its sadc per-process rows (the
  /// default). A host whose snapshots are never encoded — no wire, no
  /// recorder — turns them off before the first tick; node and NIC
  /// values stay bit-identical either way (NodeOsModel::setProcessRows).
  void setProcessRows(bool on);

  /// External per-tick resource consumers (the fault hogs). The
  /// request callback runs in the demand phase, advance in the grant
  /// phase. Returns a handle for removeTickHook.
  struct TickHook {
    std::function<void(SimTime)> request;
    std::function<void(SimTime)> advance;
  };
  int addTickHook(TickHook hook);
  void removeTickHook(int id);

  /// Invoked (if set) after a job completes, before cleanup is
  /// scheduled. The workload generator uses this to keep the mix full.
  std::function<void(Job&, SimTime)> onJobComplete;

  /// Number of ticks executed (tests / sanity checks).
  long tickCount() const { return tickCount_; }

 private:
  void tick();
  void heartbeat(std::size_t slaveIndex);
  void heartbeatAndReschedule(std::size_t slaveIndex);
  void scheduleCleanup(Job& job, SimTime now);

  HadoopParams params_;
  topology::ClusterLayout layout_;
  std::unique_ptr<topology::UplinkPlane> uplinks_;
  Rng rng_;
  sim::SimEngine& engine_;
  std::vector<std::unique_ptr<Node>> nodes_;  // [0] master, [1..N] slaves
  NameNode nameNode_;
  std::vector<std::unique_ptr<TaskTracker>> tts_;  // per slave
  JobTracker jobTracker_;
  std::map<int, TickHook> hooks_;
  std::vector<int> hookIds_;  // tick()'s snapshot of hooks_, reused
  int nextHookId_ = 0;
  long tickCount_ = 0;
};

}  // namespace asdf::hadoop
