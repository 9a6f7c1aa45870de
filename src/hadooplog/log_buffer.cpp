#include "hadooplog/log_buffer.h"

#include <stdexcept>
#include <string>

namespace asdf::hadooplog {

void LogBuffer::append(std::string_view line) {
  totalBytes_ += static_cast<double>(line.size()) + 1.0;
  lines_.emplace_back(line);
}

const std::string& LogBuffer::line(std::size_t index) const {
  // Below base_ the difference wraps past size(), so at() throws.
  return lines_.at(index - base_);
}

std::span<const std::string> LogBuffer::linesFrom(std::size_t from) const {
  if (from < base_) {
    throw std::logic_error("LogBuffer: line " + std::to_string(from) +
                           " was discarded (lines from " +
                           std::to_string(base_) + " are held)");
  }
  if (from >= lineCount()) return {};
  return std::span<const std::string>(lines_).subspan(from - base_);
}

void LogBuffer::discardAll() {
  base_ = lineCount();
  lines_.clear();
}

double LogBuffer::drainNewBytes() {
  const double fresh = totalBytes_ - drainedBytes_;
  drainedBytes_ = totalBytes_;
  return fresh;
}

}  // namespace asdf::hadooplog
