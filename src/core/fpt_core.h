// fpt-core: the fingerpointing core (Section 3 of the paper).
//
// A configuration file instantiates modules and wires outputs to
// inputs; fpt-core builds the resulting DAG with the paper's
// initialization-queue algorithm (Section 3.3):
//
//   1. a vertex per module instance in the configuration;
//   2. annotate each instance with its unsatisfied inputs;
//      output-only instances join the initialization queue;
//   3. initialize queued instances — init() verifies inputs, reads
//      parameters, creates outputs; new outputs satisfy other
//      instances' inputs, queueing them in turn;
//   4. repeat until all instances are initialized; anything left is a
//      configuration error and fpt-core terminates (ConfigError).
//
// At runtime the scheduler calls run() on instances either at their
// requested frequency (data-collection modules poll external sources)
// or when the configured number of their inputs were updated
// (analysis modules fire as soon as the data they need is available).
//
// Execution is split into two layers (documented in DESIGN.md):
//
//   Scheduler (this class) — per virtual tick, collects every ready
//   instance and dispatches it as part of a *wavefront*: the ready set
//   grouped by topological DAG level. Levels run lowest-first with a
//   barrier between them; output notifications produced inside a level
//   are merged in deterministic (configuration) order at the barrier,
//   which is what keeps results independent of the executor.
//
//   Inside an executor task, consecutive runs of sibling instances
//   (one module type) for the same reason go to Module::runBatch as
//   one batch, never across a chunk or an exclusivity group, so the
//   serial run order is unchanged.
//
//   Executor (executor.h) — carries out the runs of one level. The
//   default SerialExecutor is bit-reproducible (same seed → same
//   alarms, byte for byte); ThreadPoolExecutor runs independent
//   instances of a level concurrently, restoring the paper's
//   thread-per-module concurrency, with identical alarm content.
//
// A wall-clock driver for live use is provided by RealTimeDriver
// (realtime.h).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cputime.h"
#include "common/ini.h"
#include "common/strings.h"
#include "core/environment.h"
#include "core/executor.h"
#include "core/graph.h"
#include "core/registry.h"
#include "sim/engine.h"

namespace asdf::core {

class FptCore {
 public:
  /// The environment is copied in; provide services first. Modules
  /// are created through `registry` (defaults to the global one).
  FptCore(sim::SimEngine& engine, Environment env,
          ModuleRegistry* registry = nullptr);
  ~FptCore();

  FptCore(const FptCore&) = delete;
  FptCore& operator=(const FptCore&) = delete;

  /// Parses + builds + initializes the DAG. Throws ConfigError on
  /// malformed configuration, unknown module types, unsatisfiable
  /// inputs, duplicate ids, or dependency cycles.
  void configure(const IniFile& config);
  void configureFromText(const std::string& configText);
  void configureFromFile(const std::string& path);

  /// Instance lookup by id (hash index; O(1), heterogeneous — a
  /// string_view slice of a config ref needs no temporary string).
  /// nullptr when absent.
  ModuleInstance* findInstance(std::string_view id);
  const std::vector<std::unique_ptr<ModuleInstance>>& instances() const {
    return instances_;
  }

  /// Swaps the execution back-end. Defaults to SerialExecutor. May be
  /// called before or after configure(), but not from module code
  /// while a wavefront is being dispatched.
  void setExecutor(std::unique_ptr<Executor> executor);
  Executor& executor() { return *executor_; }

  Environment& env() { return env_; }
  sim::SimEngine& engine() { return engine_; }

  /// Real CPU seconds spent executing module code (Table 3), metered
  /// once per executor task (one chunk of a level's groups). Under a
  /// parallel executor this sums CPU time across worker threads.
  double cpuSeconds() const { return cpu_.seconds(); }
  /// Approximate resident footprint of the graph (Table 3).
  std::size_t memoryFootprintBytes() const;
  /// Total module runs (sanity/throughput metrics): the sum of every
  /// instance's run count. A sibling batch counts each member.
  std::uint64_t totalRuns() const;
  /// Wavefront dispatches performed (each covers >= 1 level).
  std::uint64_t wavefronts() const { return wavefronts_; }

 private:
  friend class InstanceContext;

  // One dispatchable unit: an instance plus why it runs. An instance
  // can appear twice in a level (periodic firing and a satisfied input
  // trigger at the same timestamp) — both runs happen back to back on
  // the same executor task, periodic first, matching the engine-order
  // semantics of the previous inline dispatcher.
  struct ReadyRun {
    ModuleInstance* instance;
    RunReason reason;
  };

  // The instances of one periodic interval, in initialization order;
  // one engine timer per interval readies them all.
  struct PeriodTimer {
    double interval;
    std::vector<ModuleInstance*> members;
  };

  void initializeGraph();
  /// Joins the engine timer of the instance's period, creating it on
  /// first use.
  void addToPeriodTimer(ModuleInstance& instance);
  void wireInputs(ModuleInstance& instance);
  /// Dense id of an instance's sibling set: its type name and the
  /// module's class.
  int internSibling(const ModuleInstance& instance);
  /// Dense id of an exclusivity domain name, assigned on first use.
  /// Called from init() only, so dispatch never hashes a string.
  int internDomain(const std::string& name);

  // --- wavefront scheduling ---------------------------------------------
  /// Called by InstanceContext::write. During a dispatch the
  /// notification is deferred to the current level's barrier;
  /// otherwise (init-time writes) it is published immediately.
  void noteOutputWritten(ModuleInstance& writer, OutputPort& port);
  /// Stamps and publishes a write set in one pass — a producer's whole
  /// deferred set at the level barrier, or one init-time write —
  /// counting every port update per listener but enqueueing each
  /// consumer once.
  void publishWrites(std::span<OutputPort* const> writes);
  /// Adds an instance to the ready set and arms the dispatch event.
  void enqueueReady(ModuleInstance& instance);
  void scheduleWavefront();
  /// Drains the ready set: groups it by topological level, runs each
  /// level through the executor, merges deferred notifications at the
  /// level barrier, and repeats for newly readied (deeper) levels.
  void dispatchWavefront();
  /// Splits one level's runs into serial groups: one union-find pass
  /// joins the two entries of one instance and every run sharing an
  /// exclusivity domain into one group (configuration order); all
  /// other instances get a group each. Groups are ordered by their
  /// first run. Fills groups_/groupCount_ from reused buffers, so the
  /// steady state allocates nothing.
  void buildExclusiveGroups(const std::vector<ReadyRun>& runs);
  /// Cuts the level's groups into the executor's tasks: contiguous
  /// chunks in group order, one for a serial executor and at most
  /// kChunksPerWorker x concurrency() otherwise, cut where the running
  /// count of runs crosses each equal share of the level. Fills
  /// chunkEnd_.
  void buildChunks(std::size_t runCount);
  /// Runs chunk `chunk`'s groups in order under one CPU scope, each
  /// group as its maximal sibling batches; a throwing group ends the
  /// chunk.
  void runChunk(std::size_t chunk);

  /// A chunk's reused batch buffers: one per chunk, so pool workers
  /// never share them, and warm capacity keeps dispatch allocation-free.
  struct BatchScratch {
    std::vector<InstanceContext> contexts;
    std::vector<ModuleContext*> contextPtrs;
    std::vector<Module*> members;
  };
  /// Runs `runs` (siblings, one reason) as one Module::runBatch, then
  /// marks each member's inputs read.
  void runBatch(BatchScratch& scratch, std::span<const ReadyRun> runs);

  sim::SimEngine& engine_;
  Environment env_;
  ModuleRegistry* registry_;
  std::vector<std::unique_ptr<ModuleInstance>> instances_;
  std::unordered_map<std::string, ModuleInstance*, TransparentStringHash,
                     std::equal_to<>>
      instanceIndex_;
  std::unique_ptr<Executor> executor_;
  std::unordered_map<std::string, int> domainIds_;  // see internDomain()
  std::unordered_map<std::string, int> siblingIds_;  // see internSibling()

  std::vector<PeriodTimer> periodTimers_;

  std::vector<ModuleInstance*> readySet_;
  // Reused dispatch buffers (wavefront hot path; capacity persists so
  // the steady state allocates nothing). frontier_ is indexed by
  // topological level, sized once the DAG is built.
  std::vector<std::vector<ModuleInstance*>> frontier_;
  std::vector<ReadyRun> levelRuns_;
  std::vector<ModuleInstance*> batchTargets_;
  std::vector<std::vector<ReadyRun>> groups_;  // first groupCount_ valid
  std::size_t groupCount_ = 0;
  // Union-find state of buildExclusiveGroups, indexed by run (parent_,
  // groupOfRoot_) or by domain id (firstRunOfDomain_, kNoRun between
  // levels).
  static constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> groupOfRoot_;
  std::vector<std::size_t> firstRunOfDomain_;
  std::vector<std::size_t> chunkEnd_;  // one past each chunk's last group
  std::vector<BatchScratch> batchScratch_;  // by chunk
  std::vector<Executor::Task> tasks_;
  bool wavefrontScheduled_ = false;  // dispatch event already queued
  bool dispatching_ = false;         // inside dispatchWavefront
  std::uint64_t writeSeq_ = 0;       // deterministic global write stamp
  std::uint64_t wavefronts_ = 0;
  std::mutex alarmMutex_;  // serializes the wrapped env alarm sink

  CpuMeter cpu_;
  bool configured_ = false;
};

}  // namespace asdf::core
