#include "modules/modules.h"

#include "common/error.h"

namespace asdf::modules {

std::vector<std::string> numberedInputs(const core::ModuleContext& ctx,
                                        const std::string& prefix) {
  std::vector<std::string> names;
  for (int i = 0;; ++i) {
    std::string name = prefix + std::to_string(i);
    const std::size_t width = ctx.inputWidth(name);
    if (width == 0) break;
    if (width != 1) {
      throw ConfigError("[" + ctx.instanceId() + "] input '" + name +
                        "' must bind exactly one output");
    }
    names.push_back(std::move(name));
  }
  return names;
}

void registerCsvSinkModule(core::ModuleRegistry&);
void registerMergeModules(core::ModuleRegistry&);
void registerReduceModules(core::ModuleRegistry&);
void registerMitigateModule(core::ModuleRegistry&);
void registerStraceModule(core::ModuleRegistry&);
void registerSadcModule(core::ModuleRegistry&);
void registerHadoopLogModule(core::ModuleRegistry&);
void registerIBufferModule(core::ModuleRegistry&);
void registerMavgvecModule(core::ModuleRegistry&);
void registerKnnModule(core::ModuleRegistry&);
void registerNodeHealthModule(core::ModuleRegistry&);
void registerPrintModule(core::ModuleRegistry&);

void registerBuiltinModules(core::ModuleRegistry* registry) {
  core::ModuleRegistry& r =
      registry != nullptr ? *registry : core::ModuleRegistry::global();
  registerSadcModule(r);
  registerHadoopLogModule(r);
  registerIBufferModule(r);
  registerMavgvecModule(r);
  registerKnnModule(r);
  registerReduceModules(r);
  registerMergeModules(r);
  registerNodeHealthModule(r);
  registerPrintModule(r);
  registerCsvSinkModule(r);
  registerMitigateModule(r);
  registerStraceModule(r);
}

}  // namespace asdf::modules
