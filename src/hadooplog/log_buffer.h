// An append-only in-memory log file.
//
// Each simulated daemon (TaskTracker, DataNode) owns one LogBuffer:
// the substrate appends formatted text lines as the corresponding
// events happen, and the hadoop_log parser reads *text* back out —
// never simulator internals — so the white-box path exercises real
// parsing. Readers keep their own cursor, which reproduces the
// paper's "on-demand, lazy parsing" of logs (Section 4.3): each RPC
// poll consumes only the lines appended since the previous poll.
// Line numbers are global and never reused. The one cursor reader that
// owns a buffer's tail (the node's hadoop_log daemon) discards the lines
// once it has parsed them all, so a monitored node holds only its unread
// lines; a buffer nobody discards keeps every line from 0.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace asdf::hadooplog {

class LogBuffer {
 public:
  /// Appends one already-formatted line (without trailing newline).
  void append(std::string_view line);

  /// Lines ever appended, discarded ones included: the next line's
  /// number.
  std::size_t lineCount() const { return base_ + lines_.size(); }

  /// Returns the line with the given number (0-based). Throws
  /// std::out_of_range for a discarded or not yet written line.
  const std::string& line(std::size_t index) const;

  /// Lines [from, lineCount()) in place — what a tail-reading daemon
  /// would see since its cursor. Throws std::logic_error when `from`
  /// precedes a discarded line: a second reader, or a cursor that fell
  /// behind, would otherwise lose lines unnoticed. The view is
  /// invalidated by the next append() or discardAll().
  std::span<const std::string> linesFrom(std::size_t from) const;

  /// Frees every line held; the next line appended is still numbered
  /// lineCount().
  void discardAll();

  /// Total bytes appended (including implied newlines); used to model
  /// the disk traffic of log writing.
  double totalBytes() const { return totalBytes_; }

  /// Bytes appended since the last drainNewBytes() call.
  double drainNewBytes();

 private:
  std::vector<std::string> lines_;  // lines base_, base_ + 1, ...
  std::size_t base_ = 0;
  double totalBytes_ = 0.0;
  double drainedBytes_ = 0.0;
};

}  // namespace asdf::hadooplog
