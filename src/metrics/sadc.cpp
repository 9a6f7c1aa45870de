#include "metrics/sadc.h"

#include <cassert>

namespace asdf::metrics {

std::vector<double> flattenNodeVector(const SadcSnapshot& snap) {
  std::vector<double> out;
  flattenNodeVector(snap, out);
  return out;
}

void flattenNodeVector(const SadcSnapshot& snap, std::vector<double>& out) {
  assert(snap.node.size() == kNodeMetricCount);
  assert(snap.nic.size() == kNicMetricCount);
  out.reserve(kFlatNodeVectorSize);
  out.assign(snap.node.begin(), snap.node.end());
  out.insert(out.end(), snap.nic.begin(), snap.nic.end());
}

std::vector<std::string> flattenedNodeVectorNames() {
  std::vector<std::string> names;
  names.reserve(kFlatNodeVectorSize);
  for (const char* n : nodeMetricNames()) names.emplace_back(n);
  for (const char* n : nicMetricNames()) {
    names.emplace_back(std::string("eth0.") + n);
  }
  return names;
}

}  // namespace asdf::metrics
