#include "hadoop/cluster.h"

#include <cassert>

namespace asdf::hadoop {
namespace {

// Heartbeat RPC payload, request + response (status report, task
// actions). Tiny relative to data traffic; recorded for realism.
constexpr double kHeartbeatBytes = 1200.0;

}  // namespace

Cluster::Cluster(HadoopParams params, std::uint64_t seed,
                 sim::SimEngine& engine)
    : params_(params),
      layout_(params.slaveCount, params.topology),
      rng_(seed),
      engine_(engine),
      nameNode_(params.slaveCount, params.replication),
      jobTracker_(*this, nameNode_) {
  assert(params_.slaveCount >= 1);
  if (!layout_.flat()) {
    uplinks_ = std::make_unique<topology::UplinkPlane>(
        layout_, layout_.uplinkBytesPerSec());
  }
  for (NodeId id = 0; id <= params_.slaveCount; ++id) {
    nodes_.push_back(std::make_unique<Node>(id, params_, rng_.split()));
    nodes_.back()->setTopology(layout_.rackOf(id), uplinks_.get());
  }
  std::vector<TaskTracker*> tts;
  for (NodeId id = 1; id <= params_.slaveCount; ++id) {
    tts_.push_back(std::make_unique<TaskTracker>(*this, *nodes_[id]));
    tts.push_back(tts_.back().get());
  }
  jobTracker_.setTaskTrackers(std::move(tts));
  jobTracker_.onJobComplete = [this](Job& job, SimTime now) {
    if (onJobComplete) onJobComplete(job, now);
    scheduleCleanup(job, now);
  };
}

Cluster::~Cluster() = default;

TaskTracker& Cluster::taskTracker(NodeId id) {
  assert(id >= 1 && id <= params_.slaveCount);
  return *tts_[static_cast<std::size_t>(id - 1)];
}

std::vector<Node*> Cluster::slaveNodes() {
  std::vector<Node*> out;
  out.reserve(static_cast<std::size_t>(params_.slaveCount));
  for (NodeId id = 1; id <= params_.slaveCount; ++id) {
    out.push_back(nodes_[static_cast<std::size_t>(id)].get());
  }
  return out;
}

void Cluster::setProcessRows(bool on) {
  for (const auto& node : nodes_) node->setProcessRows(on);
}

void Cluster::start() {
  // The main tick, at every whole second (phase 1.0 so the first tick
  // covers [0, 1)).
  engine_.addPeriodic(1.0, [this] { tick(); }, 1.0);

  // Staggered TaskTracker heartbeats with per-beat jitter. The jitter
  // matters for scheduling fairness: with rigid phases the same node
  // would win every scheduling race each round and soak up all the
  // reduces.
  for (std::size_t i = 0; i < tts_.size(); ++i) {
    const double phase =
        params_.heartbeatInterval *
        (0.3 + 0.7 * static_cast<double>(i) /
                   static_cast<double>(tts_.size()));
    engine_.scheduleAfter(phase, [this, i] { heartbeatAndReschedule(i); });
  }

  // Speculative-execution scan.
  engine_.addPeriodic(10.0, [this] { jobTracker_.checkSpeculation(
                                engine_.now()); },
                      10.0);
}

int Cluster::addTickHook(TickHook hook) {
  const int id = nextHookId_++;
  hooks_.emplace(id, std::move(hook));
  return id;
}

void Cluster::removeTickHook(int id) { hooks_.erase(id); }

void Cluster::tick() {
  const SimTime now = engine_.now();
  ++tickCount_;

  for (auto& n : nodes_) n->beginTick();
  if (uplinks_ != nullptr) uplinks_->beginTick();

  // Snapshot hook ids: a hook's advance may remove the hook itself
  // (e.g. the DiskHog finishing its 20 GB write).
  hookIds_.clear();
  for (const auto& [id, hook] : hooks_) hookIds_.push_back(id);

  for (auto& tt : tts_) tt->requestResources(now);
  for (int id : hookIds_) {
    const auto it = hooks_.find(id);
    if (it != hooks_.end() && it->second.request) it->second.request(now);
  }

  for (auto& n : nodes_) n->finalizeResources();
  if (uplinks_ != nullptr) uplinks_->finalize();

  for (auto& tt : tts_) tt->advance(now, 1.0);
  for (int id : hookIds_) {
    const auto it = hooks_.find(id);
    if (it != hooks_.end() && it->second.advance) it->second.advance(now);
  }

  for (auto& n : nodes_) n->endTick(now);
}

void Cluster::heartbeatAndReschedule(std::size_t slaveIndex) {
  heartbeat(slaveIndex);
  const double jitter = rng_.uniform(-0.4, 0.4);
  engine_.scheduleAfter(params_.heartbeatInterval + jitter,
                        [this, slaveIndex] {
                          heartbeatAndReschedule(slaveIndex);
                        });
}

void Cluster::heartbeat(std::size_t slaveIndex) {
  const SimTime now = engine_.now();
  TaskTracker& tt = *tts_[slaveIndex];
  jobTracker_.processHeartbeat(tt, now);
  // RPC traffic: slave -> master report, master -> slave actions.
  tt.node().addNetTx(kHeartbeatBytes);
  tt.node().addNetRx(kHeartbeatBytes * 0.5);
  nodes_[0]->addNetRx(kHeartbeatBytes);
  nodes_[0]->addNetTx(kHeartbeatBytes * 0.5);
  nodes_[0]->addCpuSystem(0.001);
}

void Cluster::scheduleCleanup(Job& job, SimTime now) {
  (void)now;
  // GridMix deletes a finished job's data after a short delay; the
  // deletions surface as DeleteBlock instant events on the DataNodes.
  std::vector<long> blocks = job.inputBlocks();
  blocks.insert(blocks.end(), job.outputBlocks().begin(),
                job.outputBlocks().end());
  engine_.scheduleAfter(params_.outputDeleteDelay, [this, blocks] {
    const SimTime t = engine_.now();
    for (long blockId : blocks) {
      for (NodeId replica : nameNode_.deleteBlock(blockId)) {
        node(replica).dnWriter().deletingBlock(t, blockId);
      }
    }
  });
}

}  // namespace asdf::hadoop
