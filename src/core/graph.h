// DAG vertices and edges: module instances, output ports, input
// connections. FptCore (fpt_core.h) builds and schedules the graph;
// this header holds the data structures plus the ModuleContext
// implementation modules interact with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/ini.h"
#include "core/module.h"

namespace asdf::core {

class FptCore;
class ModuleInstance;

/// A named output connection of a module instance. Holds the latest
/// sample; subscribers poll it when notified.
///
/// Thread-safety contract (parallel executors): a port has exactly one
/// producer, and the wavefront scheduler only runs a subscriber after
/// the level barrier that follows the producer's run, so readers never
/// overlap the producing write. The mutex guards the value slot itself
/// against executors that interleave a producer's re-run with a stale
/// reader (defensive; the level barrier already orders stock modules),
/// and `writeSeq` stamps each write with the scheduler's deterministic
/// global sequence when its notification is merged at the barrier.
struct OutputPort {
  ModuleInstance* owner = nullptr;
  std::string name;
  std::string origin;  // e.g. "slave3"; set by the producing module
  Sample latest;
  std::uint64_t version = 0;   // bumped on every write (per-port)
  std::uint64_t writeSeq = 0;  // global stamp, assigned at merge time
  std::mutex slotMutex;        // guards latest/version during writes
  /// Instances with a connection bound to *this specific port*,
  /// deduplicated. Precomputed at wiring time so publishing a write is
  /// one indexed walk instead of rescanning every subscriber's input
  /// map per write.
  std::vector<ModuleInstance*> listeners;
};

/// An edge: one bound output, as seen from the consuming instance.
struct InputConnection {
  OutputPort* port = nullptr;
  std::uint64_t lastSeenVersion = 0;  // for freshness accounting
};

/// One vertex of the DAG.
class ModuleInstance {
 public:
  ModuleInstance(FptCore& core, std::string id, std::string type,
                 IniSection section, std::unique_ptr<Module> module);

  const std::string& id() const { return id_; }
  const std::string& type() const { return type_; }
  bool initialized() const { return initialized_; }
  std::uint64_t runCount() const { return runs_; }

  /// Output port by name; nullptr when absent.
  OutputPort* findOutput(const std::string& name);
  const std::vector<std::unique_ptr<OutputPort>>& outputs() const {
    return outputs_;
  }

  /// Topological depth in the DAG (0 = no inputs). Valid after
  /// configure().
  int level() const { return level_; }

 private:
  friend class FptCore;
  friend class InstanceContext;

  FptCore& core_;
  std::string id_;
  std::string type_;
  IniSection section_;
  std::unique_ptr<Module> module_;

  /// One "input[name] = ref" assignment, parsed at construction and
  /// resolved to its producer by FptCore::configure().
  struct InputSpec {
    std::string inputName;
    std::string producerId;
    std::string output;  // empty for "@instance": bind every output
    ModuleInstance* producer = nullptr;
    int line = 0;
  };
  std::vector<InputSpec> inputSpecs_;

  std::vector<std::string> inputOrder_;
  std::map<std::string, std::vector<InputConnection>> inputs_;
  std::vector<std::unique_ptr<OutputPort>> outputs_;

  bool initialized_ = false;
  double periodicInterval_ = 0.0;  // 0 = no periodic schedule
  int inputTrigger_ = 1;
  int pendingUpdates_ = 0;
  std::uint64_t runs_ = 0;

  // --- scheduler state (owned by FptCore's wavefront dispatcher) -------
  int order_ = 0;      // configuration-file position; determinism key
  int level_ = 0;      // topological depth; wavefront grouping key
  int sibling_ = 0;    // interned (type, class): batch key, see runBatch
  std::vector<int> domains_;  // interned requestExclusive() domains
  bool queuedPeriodic_ = false;  // a periodic firing awaits dispatch
  bool runQueued_ = false;       // an input-trigger check awaits dispatch
  bool inReadySet_ = false;      // already in the dispatcher's ready set
  bool inPublishBatch_ = false;  // dedup mark while a batch publishes
  // Ports this instance wrote during its current run; drained by the
  // scheduler at the level barrier, where notifications are merged in
  // deterministic order. Only the running instance's thread appends,
  // only the dispatcher (after the barrier) drains.
  std::vector<OutputPort*> deferredWrites_;
};

/// The ModuleContext implementation handed to Module::init/run.
class InstanceContext final : public ModuleContext {
 public:
  InstanceContext(FptCore& core, ModuleInstance& instance)
      : core_(core), instance_(instance) {}

  const std::string& instanceId() const override { return instance_.id_; }
  const IniSection& section() const override { return instance_.section_; }

  std::vector<std::string> inputNames() const override {
    return instance_.inputOrder_;
  }
  std::size_t inputWidth(const std::string& name) const override;
  const Sample& input(const std::string& name,
                      std::size_t index) const override;
  bool inputHasData(const std::string& name,
                    std::size_t index) const override;
  bool inputFresh(const std::string& name, std::size_t index) const override;
  const std::string& inputOrigin(const std::string& name,
                                 std::size_t index) const override;
  const std::string& inputPortName(const std::string& name,
                                   std::size_t index) const override;

  int addOutput(const std::string& name, const std::string& origin) override;
  void write(int outputIndex, Value value) override;

  void requestPeriodic(double interval) override;
  void setInputTrigger(int updates) override;
  void requestExclusive(const std::string& domain) override;

  SimTime now() const override;
  Environment& env() override;

 private:
  const InputConnection& connection(const std::string& name,
                                    std::size_t index) const;
  /// Throws ConfigError once the instance is initialized: outputs and
  /// scheduling hooks are fixed at configure time.
  void requireInit(const char* hook) const;
  FptCore& core_;
  ModuleInstance& instance_;
};

}  // namespace asdf::core
