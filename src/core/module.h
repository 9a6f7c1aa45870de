// The fpt-core plug-in API (Section 3.2 of the paper).
//
// All module types — data-collection and analysis alike — implement
// the same two entry points:
//
//   init(ctx)  — called once per instance: read configuration values,
//                verify input connections, create output connections,
//                set origin information, add scheduling hooks.
//   run(ctx, reason) — called by the scheduler, either periodically
//                (data-collection modules poll their sources) or when
//                a configurable number of inputs received new data
//                (analysis modules).
//
// Modules never see each other directly; they communicate only
// through their ports, which is what lets a configuration file rewire
// collection into analysis arbitrarily.
//
// Sibling batches: instances of one module type are siblings. When a
// wavefront runs consecutive siblings for the same reason — inside one
// executor chunk and one exclusivity group, in configuration order —
// fpt-core hands them to runBatch() in one call, on the first member.
// The default loops over run(), so a module that does not override it
// behaves exactly as if each member ran alone. An override may share
// work across the set (one pipelined collection burst for every
// node's collector, say), but must leave each member's outputs and
// side effects as the one-at-a-time loop would, member by member in
// order. The batch is an optimization the configuration never sees.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/ini.h"
#include "core/environment.h"
#include "core/value.h"

namespace asdf::core {

enum class RunReason {
  kPeriodic,       // scheduled at the instance's requested frequency
  kInputsUpdated,  // the configured number of input updates arrived
};

/// The facade through which a module instance touches the core. The
/// concrete implementation lives in graph.cpp; modules only see this
/// interface, which keeps them decoupled from scheduler internals.
class ModuleContext {
 public:
  virtual ~ModuleContext() = default;

  // --- identity & configuration --------------------------------------
  virtual const std::string& instanceId() const = 0;
  virtual const IniSection& section() const = 0;
  /// Convenience parameter readers; numeric variants throw ConfigError
  /// on malformed values (fail at init, not mid-run).
  std::string param(const std::string& key,
                    const std::string& fallback = "") const;
  double numParam(const std::string& key, double fallback) const;
  long intParam(const std::string& key, long fallback) const;

  // --- inputs ----------------------------------------------------------
  /// Names of configured inputs, in configuration order.
  virtual std::vector<std::string> inputNames() const = 0;
  /// Number of output connections bound to the named input.
  virtual std::size_t inputWidth(const std::string& name) const = 0;
  /// Latest sample on connection `index` of the named input.
  virtual const Sample& input(const std::string& name,
                              std::size_t index) const = 0;
  /// True once the connection has ever produced data.
  virtual bool inputHasData(const std::string& name,
                            std::size_t index) const = 0;
  /// True when the connection produced data since this instance last
  /// finished a run.
  virtual bool inputFresh(const std::string& name,
                          std::size_t index) const = 0;
  /// Origin label of the producing output (e.g. "slave3").
  virtual const std::string& inputOrigin(const std::string& name,
                                         std::size_t index) const = 0;
  /// Name of the producing output port (e.g. "alarms").
  virtual const std::string& inputPortName(const std::string& name,
                                           std::size_t index) const = 0;

  // --- outputs (create during init, write during run) -------------------
  virtual int addOutput(const std::string& name,
                        const std::string& origin = "") = 0;
  virtual void write(int outputIndex, Value value) = 0;

  // --- scheduling hooks (init only; ConfigError once initialized) --------
  /// Requests periodic run() calls every `interval` seconds.
  virtual void requestPeriodic(double interval) = 0;
  /// Requests input-triggered run() calls after `updates` input writes
  /// (default 1 — run whenever anything new arrives).
  virtual void setInputTrigger(int updates) = 0;
  /// Declares membership in a mutual-exclusion domain: two instances
  /// sharing any domain never run concurrently, and their relative
  /// order within a wavefront level is their configuration order.
  /// Modules that mutate a shared environment service (a per-node
  /// daemon, a cross-instance synchronizer) declare the service's
  /// domain here so parallel executors stay correct and deterministic.
  /// May be called multiple times with different domains. Under the
  /// serial executor it still fixes the run order: a level runs group
  /// by group, each group in configuration order.
  virtual void requestExclusive(const std::string& domain) = 0;

  // --- services ----------------------------------------------------------
  virtual SimTime now() const = 0;
  virtual Environment& env() = 0;
};

class Module {
 public:
  virtual ~Module() = default;
  /// Throws ConfigError on bad configuration or wiring.
  virtual void init(ModuleContext& ctx) = 0;
  virtual void run(ModuleContext& ctx, RunReason reason) = 0;
  /// Runs a sibling batch: `members[i]` with `contexts[i]`, every one
  /// for `reason`, in order; called on members[0]. Every member is an
  /// instance of this module's own class, created by the same
  /// registered type. If a member throws, the batch ends there; the
  /// core counts every member it handed over as run, and marks no
  /// member's inputs read.
  virtual void runBatch(std::span<Module* const> members,
                        std::span<ModuleContext* const> contexts,
                        RunReason reason) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      members[i]->run(*contexts[i], reason);
    }
  }
};

}  // namespace asdf::core
