#include "hadooplog/log_buffer.h"

#include <cassert>
#include <utility>

namespace asdf::hadooplog {

void LogBuffer::append(std::string line) {
  totalBytes_ += static_cast<double>(line.size()) + 1.0;
  lines_.push_back(std::move(line));
}

const std::string& LogBuffer::line(std::size_t index) const {
  assert(index < lines_.size());
  return lines_[index];
}

std::span<const std::string> LogBuffer::linesFrom(std::size_t from) const {
  if (from >= lines_.size()) return {};
  return std::span<const std::string>(lines_).subspan(from);
}

double LogBuffer::drainNewBytes() {
  const double fresh = totalBytes_ - drainedBytes_;
  drainedBytes_ = totalBytes_;
  return fresh;
}

}  // namespace asdf::hadooplog
