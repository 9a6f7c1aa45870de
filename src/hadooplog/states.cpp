#include "hadooplog/states.h"

namespace asdf::hadooplog {
namespace {

const std::array<const char*, kTtStateCount> kTtNames = {
    "MapTask", "ReduceTask", "ReduceCopy", "ReduceSort", "ReduceReduce",
};

const std::array<const char*, kDnStateCount> kDnNames = {
    "ReadBlock", "WriteBlock", "DeleteBlock",
};

}  // namespace

const std::array<const char*, kTtStateCount>& ttStateNames() {
  return kTtNames;
}

const std::array<const char*, kDnStateCount>& dnStateNames() {
  return kDnNames;
}

}  // namespace asdf::hadooplog
