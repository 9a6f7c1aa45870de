#include "core/fpt_core.h"

#include <algorithm>
#include <cassert>
#include <typeinfo>

#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"

namespace asdf::core {

FptCore::FptCore(sim::SimEngine& engine, Environment env,
                 ModuleRegistry* registry)
    : engine_(engine),
      env_(std::move(env)),
      registry_(registry != nullptr ? registry : &ModuleRegistry::global()),
      executor_(std::make_unique<SerialExecutor>()) {
  // Parallel executors may deliver alarms from several print sinks of
  // one wavefront level concurrently; serialize the embedder's sink so
  // it never needs its own locking. (Alarm *sets* stay deterministic;
  // only intra-level delivery order may vary across executors.)
  if (env_.alarmSink) {
    auto inner = std::move(env_.alarmSink);
    env_.alarmSink = [this, inner](const Alarm& alarm) {
      std::lock_guard<std::mutex> lock(alarmMutex_);
      inner(alarm);
    };
  }
}

FptCore::~FptCore() = default;

void FptCore::configureFromText(const std::string& configText) {
  configure(parseIni(configText));
}

void FptCore::configureFromFile(const std::string& path) {
  configure(parseIniFile(path));
}

ModuleInstance* FptCore::findInstance(std::string_view id) {
  const auto it = instanceIndex_.find(id);
  return it == instanceIndex_.end() ? nullptr : it->second;
}

void FptCore::setExecutor(std::unique_ptr<Executor> executor) {
  assert(executor != nullptr);
  assert(!dispatching_);
  executor_ = std::move(executor);
}

void FptCore::configure(const IniFile& config) {
  if (configured_) {
    throw ConfigError("fpt-core is already configured");
  }
  configured_ = true;

  // Step 1: a vertex per module instance in the configuration file,
  // indexed by id for O(1) lookups everywhere downstream.
  int anonymous = 0;
  for (const auto& section : config.sections) {
    if (!registry_->has(section.name)) {
      throw ConfigError(strformat(
          "config line %d: unknown module type '%s'", section.line,
          section.name.c_str()));
    }
    std::string id = section.get("id");
    if (id.empty()) {
      id = strformat("%s%d", section.name.c_str(), anonymous++);
    }
    if (id.find('.') != std::string::npos || id.find('@') != std::string::npos) {
      throw ConfigError(strformat(
          "config line %d: instance id '%s' may not contain '.' or '@'",
          section.line, id.c_str()));
    }
    auto instance = std::make_unique<ModuleInstance>(
        *this, id, section.name, section, registry_->create(section.name));
    instance->order_ = static_cast<int>(instances_.size());
    instance->sibling_ = internSibling(*instance);
    if (!instanceIndex_.emplace(id, instance.get()).second) {
      throw ConfigError(strformat("config line %d: duplicate instance id '%s'",
                                  section.line, id.c_str()));
    }
    instances_.push_back(std::move(instance));
  }

  // Every input ref names its producer once, here; the graph walks
  // below follow these pointers.
  for (auto& inst : instances_) {
    for (auto& spec : inst->inputSpecs_) {
      spec.producer = findInstance(spec.producerId);
      if (spec.producer == nullptr) {
        throw ConfigError(strformat(
            "config line %d: input references unknown instance '%s'",
            spec.line, spec.producerId.c_str()));
      }
    }
  }

  initializeGraph();
}

int FptCore::internDomain(const std::string& name) {
  const auto [it, isNew] =
      domainIds_.try_emplace(name, static_cast<int>(domainIds_.size()));
  if (isNew) firstRunOfDomain_.push_back(kNoRun);
  return it->second;
}

int FptCore::internSibling(const ModuleInstance& instance) {
  // A registry factory could return different classes under one type
  // name; keying on the class too lets a runBatch override treat every
  // member as its own class.
  const Module& module = *instance.module_;
  const std::string key = instance.type() + '\0' + typeid(module).name();
  return siblingIds_.try_emplace(key, static_cast<int>(siblingIds_.size()))
      .first->second;
}

void FptCore::initializeGraph() {
  // Steps 2-4 of Section 3.3, in O(V + E): annotate each instance with
  // its count of unsatisfied input assignments and a reverse adjacency
  // list producer -> dependents (one entry per assignment, so a
  // producer bound twice decrements twice). Initializing an instance
  // decrements its dependents' counts; only instances whose count just
  // reached zero join the queue — no rescan of the whole instance set
  // per initialization.
  std::vector<std::size_t> unsatisfied(instances_.size());
  std::vector<std::vector<ModuleInstance*>> dependentsOf(instances_.size());
  std::vector<ModuleInstance*> queue;
  for (auto& inst : instances_) {
    for (const auto& spec : inst->inputSpecs_) {
      dependentsOf[spec.producer->order_].push_back(inst.get());
    }
    unsatisfied[inst->order_] = inst->inputSpecs_.size();
    if (inst->inputSpecs_.empty()) queue.push_back(inst.get());
  }

  for (std::size_t head = 0; head < queue.size(); ++head) {
    ModuleInstance* inst = queue[head];
    wireInputs(*inst);
    InstanceContext ctx(*this, *inst);
    inst->module_->init(ctx);
    inst->initialized_ = true;

    // Topological level: producers are guaranteed initialized first.
    // The dispatcher's level-indexed frontier buckets grow to fit once
    // here; the wavefront loop then reuses them.
    for (const auto& spec : inst->inputSpecs_) {
      inst->level_ = std::max(inst->level_, spec.producer->level_ + 1);
    }
    const auto depth = static_cast<std::size_t>(inst->level_) + 1;
    if (frontier_.size() < depth) frontier_.resize(depth);

    if (inst->outputs_.empty() && inst->inputSpecs_.empty()) {
      logWarn("fpt-core: instance '" + inst->id() +
              "' has neither inputs nor outputs");
    }
    if (inst->periodicInterval_ > 0.0) addToPeriodTimer(*inst);

    // This instance's outputs now exist; dependents with no other
    // missing producers become initializable.
    for (ModuleInstance* dependent : dependentsOf[inst->order_]) {
      if (--unsatisfied[dependent->order_] == 0) queue.push_back(dependent);
    }
  }

  if (queue.size() != instances_.size()) {
    // Diagnose: name the stuck instances and the producers they still
    // wait on (a cycle, or a chain into one).
    std::string detail;
    for (auto& inst : instances_) {
      if (inst->initialized_) continue;
      detail += " '" + inst->id() + "' waits on {";
      for (const auto& spec : inst->inputSpecs_) {
        if (!spec.producer->initialized_) detail += spec.producerId + " ";
      }
      detail += "}";
    }
    throw ConfigError(
        "fpt-core: DAG construction failed; uninitializable instances:" +
        detail);
  }
}

void FptCore::addToPeriodTimer(ModuleInstance& instance) {
  // Every instance registers here, in one configure() at one now(), with
  // phase = interval: all instances of one period fire at the same
  // instants, so one engine timer per period readies them all. The
  // wavefront sorts each level by configuration order, so the run
  // order is that of one timer per instance.
  const double interval = instance.periodicInterval_;
  auto timer = std::find_if(
      periodTimers_.begin(), periodTimers_.end(),
      [interval](const PeriodTimer& t) { return t.interval == interval; });
  if (timer == periodTimers_.end()) {
    const std::size_t index = periodTimers_.size();
    periodTimers_.push_back(PeriodTimer{interval, {}});
    engine_.addPeriodic(
        interval,
        [this, index] {
          for (ModuleInstance* member : periodTimers_[index].members) {
            member->queuedPeriodic_ = true;
            enqueueReady(*member);
          }
        },
        interval);
    timer = periodTimers_.end() - 1;
  }
  timer->members.push_back(&instance);
}

void FptCore::wireInputs(ModuleInstance& instance) {
  for (const auto& spec : instance.inputSpecs_) {
    const auto [it, isNew] = instance.inputs_.try_emplace(spec.inputName);
    if (isNew) instance.inputOrder_.push_back(spec.inputName);
    // Per-port listener list: lets a write publish by walking exactly
    // the consumers of that port (deduplicated so one consumer with
    // several connections to the port still counts one update per
    // write, matching the historical notification semantics).
    const auto connect = [&instance, &conns = it->second](OutputPort& port) {
      conns.push_back(InputConnection{&port, 0});
      auto& listeners = port.listeners;
      if (std::find(listeners.begin(), listeners.end(), &instance) ==
          listeners.end()) {
        listeners.push_back(&instance);
      }
    };
    ModuleInstance& producer = *spec.producer;
    if (spec.output.empty()) {
      if (producer.outputs_.empty()) {
        throw ConfigError(strformat(
            "config line %d: instance '%s' has no outputs to bind",
            spec.line, spec.producerId.c_str()));
      }
      for (auto& port : producer.outputs_) connect(*port);
    } else {
      OutputPort* port = producer.findOutput(spec.output);
      if (port == nullptr) {
        throw ConfigError(strformat(
            "config line %d: instance '%s' has no output '%s'", spec.line,
            spec.producerId.c_str(), spec.output.c_str()));
      }
      connect(*port);
    }
  }
}

// ---------------------------------------------------------------------------
// Wavefront scheduling

void FptCore::noteOutputWritten(ModuleInstance& writer, OutputPort& port) {
  if (dispatching_) {
    // Deferred: the dispatcher drains this at the level barrier and
    // merges notifications in deterministic order. Only the writer's
    // own executor thread appends here.
    writer.deferredWrites_.push_back(&port);
    return;
  }
  // Init-time (or out-of-band) write: publish immediately.
  OutputPort* const write = &port;
  publishWrites({&write, 1});
}

void FptCore::publishWrites(std::span<OutputPort* const> writes) {
  // Stamp every port first (write order = deterministic stamp order),
  // then deliver the whole batch: pendingUpdates_ counts one update
  // per port-write per listener, but each distinct consumer is
  // enqueued once.
  batchTargets_.clear();
  for (OutputPort* port : writes) {
    port->writeSeq = ++writeSeq_;
    for (ModuleInstance* sub : port->listeners) {
      ++sub->pendingUpdates_;
      if (!sub->inPublishBatch_) {
        sub->inPublishBatch_ = true;
        batchTargets_.push_back(sub);
      }
    }
  }
  for (ModuleInstance* sub : batchTargets_) {
    sub->inPublishBatch_ = false;
    sub->runQueued_ = true;
    enqueueReady(*sub);
  }
}

void FptCore::enqueueReady(ModuleInstance& instance) {
  if (!instance.inReadySet_) {
    instance.inReadySet_ = true;
    readySet_.push_back(&instance);
  }
  if (!dispatching_) scheduleWavefront();
}

void FptCore::scheduleWavefront() {
  if (wavefrontScheduled_) return;
  wavefrontScheduled_ = true;
  engine_.scheduleAfter(0.0, [this] { dispatchWavefront(); });
}

void FptCore::buildExclusiveGroups(const std::vector<ReadyRun>& runs) {
  // Union-find over the level's runs. A root is always the smallest run
  // index of its set, so groups come out ordered by their first run and
  // each group keeps configuration order.
  const auto find = [this](std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  };

  parent_.resize(runs.size());
  groupOfRoot_.resize(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    parent_[i] = i;
    // An instance's two entries (periodic + triggered) are adjacent.
    if (i > 0 && runs[i].instance == runs[i - 1].instance) unite(i, i - 1);
    for (const int domain : runs[i].instance->domains_) {
      std::size_t& first = firstRunOfDomain_[static_cast<std::size_t>(domain)];
      if (first == kNoRun) first = i;
      unite(i, first);
    }
  }

  groupCount_ = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const int domain : runs[i].instance->domains_) {
      firstRunOfDomain_[static_cast<std::size_t>(domain)] = kNoRun;
    }
    const std::size_t root = find(i);
    if (root == i) {
      groupOfRoot_[i] = groupCount_++;
      if (groupCount_ > groups_.size()) groups_.emplace_back();
      groups_[groupCount_ - 1].clear();
    }
    groups_[groupOfRoot_[root]].push_back(runs[i]);
  }
}

void FptCore::buildChunks(std::size_t runCount) {
  const int concurrency = executor_->concurrency();
  const std::size_t limit =
      concurrency <= 1
          ? 1
          : std::min(groupCount_, static_cast<std::size_t>(kChunksPerWorker) *
                                      static_cast<std::size_t>(concurrency));
  chunkEnd_.clear();
  std::size_t runsSoFar = 0;
  for (std::size_t g = 0; g + 1 < groupCount_; ++g) {
    runsSoFar += groups_[g].size();
    if (runsSoFar * limit >= (chunkEnd_.size() + 1) * runCount) {
      chunkEnd_.push_back(g + 1);
    }
  }
  chunkEnd_.push_back(groupCount_);
  if (batchScratch_.size() < chunkEnd_.size()) {
    batchScratch_.resize(chunkEnd_.size());
  }
}

void FptCore::runChunk(std::size_t chunk) {
  // Metered per chunk, not per group or run: each scope costs two
  // thread-CPU clock reads, a syscall each.
  CpuMeter::Scope scope(cpu_);
  BatchScratch& scratch = batchScratch_[chunk];
  const std::size_t first = chunk == 0 ? 0 : chunkEnd_[chunk - 1];
  for (std::size_t g = first; g < chunkEnd_[chunk]; ++g) {
    const std::span<const ReadyRun> runs = groups_[g];
    for (std::size_t begin = 0; begin < runs.size();) {
      std::size_t end = begin + 1;
      while (end < runs.size() && runs[end].reason == runs[begin].reason &&
             runs[end].instance->sibling_ == runs[begin].instance->sibling_) {
        ++end;
      }
      runBatch(scratch, runs.subspan(begin, end - begin));
      begin = end;
    }
  }
}

void FptCore::runBatch(BatchScratch& scratch,
                       std::span<const ReadyRun> runs) {
  scratch.contexts.clear();
  scratch.contextPtrs.clear();
  scratch.members.clear();
  for (const ReadyRun& run : runs) {
    ++run.instance->runs_;
    scratch.contexts.emplace_back(*this, *run.instance);
    scratch.members.push_back(run.instance->module_.get());
  }
  for (InstanceContext& ctx : scratch.contexts) {
    scratch.contextPtrs.push_back(&ctx);
  }
  scratch.members.front()->runBatch(scratch.members, scratch.contextPtrs,
                                    runs.front().reason);
  // Mark everything read: freshness is relative to the end of the run.
  // No member reads another's output (they share a level), so marking
  // after the batch equals marking after each member.
  for (const ReadyRun& run : runs) {
    for (auto& [name, conns] : run.instance->inputs_) {
      for (auto& conn : conns) conn.lastSeenVersion = conn.port->version;
    }
  }
}

void FptCore::dispatchWavefront() {
  wavefrontScheduled_ = false;
  if (readySet_.empty()) return;
  dispatching_ = true;
  ++wavefronts_;

  // The working frontier, bucketed by topological level in reused
  // member buffers (their capacity persists across wavefronts, so the
  // steady state allocates nothing here). Notifications merged at a
  // level barrier can only ready *deeper* instances (a subscriber's
  // level strictly exceeds its producer's), so one ascending sweep
  // covers everything this wavefront can reach.
  const auto absorbReadySet = [&] {
    for (ModuleInstance* inst : readySet_) {
      inst->inReadySet_ = false;
      frontier_[static_cast<std::size_t>(inst->level_)].push_back(inst);
    }
    readySet_.clear();
  };
  absorbReadySet();

  for (std::size_t lvl = 0; lvl < frontier_.size(); ++lvl) {
    std::vector<ModuleInstance*>& levelInstances = frontier_[lvl];
    if (levelInstances.empty()) continue;
    std::sort(levelInstances.begin(), levelInstances.end(),
              [](const ModuleInstance* a, const ModuleInstance* b) {
                return a->order_ < b->order_;
              });

    levelRuns_.clear();
    for (ModuleInstance* inst : levelInstances) {
      const bool periodic = inst->queuedPeriodic_;
      inst->queuedPeriodic_ = false;
      const bool triggered = inst->runQueued_;
      inst->runQueued_ = false;
      if (periodic) levelRuns_.push_back(ReadyRun{inst, RunReason::kPeriodic});
      if (triggered && inst->pendingUpdates_ >= inst->inputTrigger_) {
        inst->pendingUpdates_ = 0;
        levelRuns_.push_back(ReadyRun{inst, RunReason::kInputsUpdated});
      }
    }
    levelInstances.clear();
    if (levelRuns_.empty()) continue;

    buildExclusiveGroups(levelRuns_);
    buildChunks(levelRuns_.size());
    tasks_.clear();
    // Two words of capture fit std::function's local buffer, so a
    // chunk closure never allocates.
    for (std::size_t c = 0; c < chunkEnd_.size(); ++c) {
      tasks_.push_back([this, c] { runChunk(c); });
    }
    try {
      executor_->runBatch(tasks_);
    } catch (...) {
      for (const ReadyRun& run : levelRuns_) {
        run.instance->deferredWrites_.clear();
      }
      for (auto& bucket : frontier_) bucket.clear();
      dispatching_ = false;
      throw;
    }

    // Level barrier: every run of this level has completed. Publish
    // each producer's whole deferred write set in deterministic order
    // — instances in configuration order, each instance's writes in
    // its own write order — regardless of how the executor interleaved
    // the runs. (No module code runs during publishing, so draining in
    // place is safe; clear() keeps the buffer's capacity.)
    for (const ReadyRun& run : levelRuns_) {
      ModuleInstance* inst = run.instance;
      if (inst->deferredWrites_.empty()) continue;
      publishWrites(inst->deferredWrites_);
      inst->deferredWrites_.clear();
    }
    absorbReadySet();
  }

  dispatching_ = false;
  if (!readySet_.empty()) scheduleWavefront();
}

std::uint64_t FptCore::totalRuns() const {
  std::uint64_t total = 0;
  for (const auto& inst : instances_) total += inst->runs_;
  return total;
}

std::size_t FptCore::memoryFootprintBytes() const {
  std::size_t total = sizeof(FptCore);
  for (const auto& inst : instances_) {
    total += sizeof(ModuleInstance) + 256 /* module object estimate */;
    for (const auto& port : inst->outputs_) {
      total += sizeof(OutputPort);
      if (const auto* vec = std::get_if<VecBuf>(&port->latest.value)) {
        total += vec->payloadBytes();
      } else if (const auto* str =
                     std::get_if<std::string>(&port->latest.value)) {
        total += str->capacity();
      }
    }
    for (const auto& [name, conns] : inst->inputs_) {
      total += name.capacity() + conns.size() * sizeof(InputConnection);
    }
  }
  return total;
}

}  // namespace asdf::core
