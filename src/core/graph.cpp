#include "core/graph.h"

#include <algorithm>
#include <cassert>

#include "common/error.h"
#include "common/strings.h"
#include "core/fpt_core.h"

namespace asdf::core {

// ---------------------------------------------------------------------------
// ModuleContext parameter helpers (shared by all implementations)

std::string ModuleContext::param(const std::string& key,
                                 const std::string& fallback) const {
  return section().get(key, fallback);
}

double ModuleContext::numParam(const std::string& key,
                               double fallback) const {
  if (!section().has(key)) return fallback;
  double v = 0.0;
  if (!parseDouble(section().get(key), v)) {
    throw ConfigError("[" + instanceId() + "] parameter '" + key +
                      "' is not a number: '" + section().get(key) + "'");
  }
  return v;
}

long ModuleContext::intParam(const std::string& key, long fallback) const {
  if (!section().has(key)) return fallback;
  long v = 0;
  if (!parseInt(section().get(key), v)) {
    throw ConfigError("[" + instanceId() + "] parameter '" + key +
                      "' is not an integer: '" + section().get(key) + "'");
  }
  return v;
}

// ---------------------------------------------------------------------------
// ModuleInstance

ModuleInstance::ModuleInstance(FptCore& core, std::string id,
                               std::string type, IniSection section,
                               std::unique_ptr<Module> module)
    : core_(core),
      id_(std::move(id)),
      type_(std::move(type)),
      section_(std::move(section)),
      module_(std::move(module)) {
  for (const auto& a : section_.assignments) {
    if (!startsWith(a.key, "input[") || !endsWith(a.key, "]")) continue;
    InputSpec spec;
    spec.inputName = a.key.substr(6, a.key.size() - 7);
    spec.line = a.line;
    if (spec.inputName.empty() || a.value.empty()) {
      throw ConfigError(strformat(
          "config line %d: malformed input assignment '%s'", a.line,
          a.key.c_str()));
    }
    // "@instance" binds every output; "instance.output" binds one.
    const bool all = a.value[0] == '@';
    const std::size_t dot = all ? std::string::npos : a.value.find('.');
    spec.producerId = all ? a.value.substr(1) : a.value.substr(0, dot);
    if (dot != std::string::npos) spec.output = a.value.substr(dot + 1);
    if (spec.producerId.empty() || (!all && spec.output.empty())) {
      throw ConfigError(strformat(
          "config line %d: input ref '%s' must be '@instance' or "
          "'instance.output'",
          a.line, a.value.c_str()));
    }
    inputSpecs_.push_back(std::move(spec));
  }
}

OutputPort* ModuleInstance::findOutput(const std::string& name) {
  for (auto& port : outputs_) {
    if (port->name == name) return port.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// InstanceContext

const InputConnection& InstanceContext::connection(const std::string& name,
                                                   std::size_t index) const {
  const auto it = instance_.inputs_.find(name);
  if (it == instance_.inputs_.end() || index >= it->second.size()) {
    throw ConfigError("[" + instance_.id_ + "] no input '" + name +
                      "' connection #" + std::to_string(index));
  }
  return it->second[index];
}

std::size_t InstanceContext::inputWidth(const std::string& name) const {
  const auto it = instance_.inputs_.find(name);
  return it == instance_.inputs_.end() ? 0 : it->second.size();
}

const Sample& InstanceContext::input(const std::string& name,
                                     std::size_t index) const {
  return connection(name, index).port->latest;
}

bool InstanceContext::inputHasData(const std::string& name,
                                   std::size_t index) const {
  return connection(name, index).port->version > 0;
}

bool InstanceContext::inputFresh(const std::string& name,
                                 std::size_t index) const {
  const InputConnection& conn = connection(name, index);
  return conn.port->version > conn.lastSeenVersion;
}

const std::string& InstanceContext::inputOrigin(const std::string& name,
                                                std::size_t index) const {
  return connection(name, index).port->origin;
}

const std::string& InstanceContext::inputPortName(const std::string& name,
                                                  std::size_t index) const {
  return connection(name, index).port->name;
}

void InstanceContext::requireInit(const char* hook) const {
  if (instance_.initialized_) {
    throw ConfigError("[" + instance_.id_ + "] " + hook +
                      " may only be called during init()");
  }
}

int InstanceContext::addOutput(const std::string& name,
                               const std::string& origin) {
  requireInit("addOutput");
  if (instance_.findOutput(name) != nullptr) {
    throw ConfigError("[" + instance_.id_ + "] duplicate output '" + name +
                      "'");
  }
  auto port = std::make_unique<OutputPort>();
  port->owner = &instance_;
  port->name = name;
  port->origin = origin;
  instance_.outputs_.push_back(std::move(port));
  return static_cast<int>(instance_.outputs_.size()) - 1;
}

void InstanceContext::write(int outputIndex, Value value) {
  assert(outputIndex >= 0 &&
         static_cast<std::size_t>(outputIndex) < instance_.outputs_.size());
  OutputPort& port = *instance_.outputs_[static_cast<std::size_t>(outputIndex)];
  {
    std::lock_guard<std::mutex> lock(port.slotMutex);
    port.latest.time = now();
    port.latest.value = std::move(value);
    ++port.version;
  }
  // Subscriber notification is routed through the scheduler: during a
  // wavefront it is deferred to the level barrier (so concurrent
  // producers never race the dispatch bookkeeping and notifications
  // merge in deterministic order); outside one it fires immediately.
  core_.noteOutputWritten(instance_, port);
}

void InstanceContext::requestPeriodic(double interval) {
  requireInit("requestPeriodic");
  if (interval <= 0.0) {
    throw ConfigError("[" + instance_.id_ + "] periodic interval must be > 0");
  }
  instance_.periodicInterval_ = interval;
}

void InstanceContext::setInputTrigger(int updates) {
  requireInit("setInputTrigger");
  if (updates < 1) {
    throw ConfigError("[" + instance_.id_ + "] input trigger must be >= 1");
  }
  instance_.inputTrigger_ = updates;
}

void InstanceContext::requestExclusive(const std::string& domain) {
  requireInit("requestExclusive");
  if (domain.empty()) {
    throw ConfigError("[" + instance_.id_ +
                      "] exclusivity domain may not be empty");
  }
  const int id = core_.internDomain(domain);
  auto& domains = instance_.domains_;
  if (std::find(domains.begin(), domains.end(), id) == domains.end()) {
    domains.push_back(id);
  }
}

SimTime InstanceContext::now() const { return core_.engine().now(); }

Environment& InstanceContext::env() { return core_.env(); }

}  // namespace asdf::core
