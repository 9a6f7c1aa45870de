// An append-only in-memory log file.
//
// Each simulated daemon (TaskTracker, DataNode) owns one LogBuffer:
// the substrate appends formatted text lines as the corresponding
// events happen, and the hadoop_log parser reads *text* back out —
// never simulator internals — so the white-box path exercises real
// parsing. Readers keep their own cursor, which reproduces the
// paper's "on-demand, lazy parsing" of logs (Section 4.3): each RPC
// poll consumes only the lines appended since the previous poll.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace asdf::hadooplog {

class LogBuffer {
 public:
  /// Appends one already-formatted line (without trailing newline).
  void append(std::string line);

  std::size_t lineCount() const { return lines_.size(); }

  /// Returns the line at the given index (0-based).
  const std::string& line(std::size_t index) const;

  /// Lines [from, lineCount()) in place — what a tail-reading daemon
  /// would see since its cursor. The view is invalidated by the next
  /// append().
  std::span<const std::string> linesFrom(std::size_t from) const;

  /// Total bytes appended (including implied newlines); used to model
  /// the disk traffic of log writing.
  double totalBytes() const { return totalBytes_; }

  /// Bytes appended since the last drainNewBytes() call.
  double drainNewBytes();

 private:
  std::vector<std::string> lines_;
  double totalBytes_ = 0.0;
  double drainedBytes_ = 0.0;
};

}  // namespace asdf::hadooplog
