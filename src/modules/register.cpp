#include "modules/modules.h"

namespace asdf::modules {

void registerAggBbModule(core::ModuleRegistry&);
void registerAggWbModule(core::ModuleRegistry&);
void registerAnalysisMadModule(core::ModuleRegistry&);
void registerCsvSinkModule(core::ModuleRegistry&);
void registerMergeModules(core::ModuleRegistry&);
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
  registerAggBbModule(r);
  registerAggWbModule(r);
  registerMergeModules(r);
  registerAnalysisMadModule(r);
  registerNodeHealthModule(r);
  registerPrintModule(r);
  registerCsvSinkModule(r);
  registerMitigateModule(r);
  registerStraceModule(r);
}

}  // namespace asdf::modules
