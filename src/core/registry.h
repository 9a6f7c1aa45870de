// Module type registry: maps the section names appearing in fpt-core
// configuration files ("[sadc]", "[knn]", "[agg_bb]", ...) to
// factories. Users plug in custom modules by registering a factory
// before configuring the core — no core changes required.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/module.h"

namespace asdf::core {

using ModuleFactory = std::function<std::unique_ptr<Module>()>;

class ModuleRegistry {
 public:
  /// The process-wide registry used by FptCore by default.
  static ModuleRegistry& global();

  /// Registers a factory; re-registering a name replaces the factory
  /// (tests rely on this to stub modules).
  void registerType(const std::string& name, ModuleFactory factory);

  bool has(const std::string& name) const;

  /// Instantiates a module; throws ConfigError for unknown types.
  std::unique_ptr<Module> create(const std::string& name) const;

  std::vector<std::string> typeNames() const;

 private:
  std::map<std::string, ModuleFactory> factories_;
};

/// Helper for static registration:
///   ASDF_REGISTER_MODULE("mavgvec", MavgvecModule);
#define ASDF_REGISTER_MODULE(name, Type)                              \
  namespace {                                                         \
  const bool asdf_registered_##Type = [] {                            \
    ::asdf::core::ModuleRegistry::global().registerType(              \
        name, [] { return std::make_unique<Type>(); });               \
    return true;                                                      \
  }();                                                                \
  }

}  // namespace asdf::core
