// Formats Hadoop-0.18-style log lines into a LogBuffer.
//
// The substrate calls these writers as task/block events happen; the
// parser (parser.h) later recovers events from the *text*. Formats
// mirror the paper's Figure 5 snippet:
//
//   2008-04-15 14:23:15,324 INFO org.apache.hadoop.mapred.TaskTracker:
//   LaunchTaskAction: task_0001_m_000096_0
//
// plus the DataNode block-lifecycle lines SALSA-style state inference
// relies on.
#pragma once

#include <string>
#include <string_view>

#include "common/types.h"
#include "hadooplog/log_buffer.h"

namespace asdf::hadooplog {

/// Builds "task_%04d_%c_%06d_%d" attempt identifiers (Figure 5).
std::string makeTaskAttemptId(int jobId, bool isMap, int taskIndex,
                              int attempt);

/// One log line under construction: "<timestamp> <level> <class>: "
/// and then the message pieces, formatted into a buffer reused across
/// lines (no printf; numbers go through std::to_chars, whose fixed
/// format is specified to match printf's %.Nf). commit() appends the
/// line to the log.
class LogLine {
 public:
  LogLine(LogBuffer* buffer, std::string_view cls)
      : buffer_(buffer), cls_(cls) {}

  LogLine& start(SimTime t, std::string_view level);
  LogLine& operator<<(std::string_view text);
  LogLine& operator<<(long value);
  /// `value` as printf's "%.<precision>f" would print it.
  LogLine& fixed(double value, int precision);
  void commit();

 private:
  LogBuffer* buffer_;
  std::string_view cls_;
  std::string line_;
};

/// Writer for a TaskTracker daemon's log.
class TtLogWriter {
 public:
  explicit TtLogWriter(LogBuffer* buffer);

  void launchTask(SimTime t, std::string_view taskId);
  void taskDone(SimTime t, std::string_view taskId);
  void taskFailed(SimTime t, std::string_view taskId,
                  std::string_view reason);
  void killTask(SimTime t, std::string_view taskId);

  /// Emits a map progress line ("0.50% hdfs://..."); informational.
  void mapProgress(SimTime t, std::string_view taskId, double fraction);

  /// Emits a reduce progress line; `phase` is "copy", "sort" or
  /// "reduce". The parser uses the first line mentioning a new phase
  /// as that phase's entrance event.
  void reduceProgress(SimTime t, std::string_view taskId, double fraction,
                      std::string_view phase, int copiedMaps, int totalMaps);

  /// WARN line for a failed shuffle fetch (HADOOP-1152 flavor).
  void copyFailed(SimTime t, std::string_view taskId,
                  std::string_view mapTaskId);

 private:
  LogLine line_;
};

/// Writer for a DataNode daemon's log.
class DnLogWriter {
 public:
  explicit DnLogWriter(LogBuffer* buffer);

  void servingBlock(SimTime t, long blockId, std::string_view clientIp);
  void servedBlock(SimTime t, long blockId, std::string_view clientIp);
  void receivingBlock(SimTime t, long blockId, std::string_view srcIp,
                      std::string_view destIp);
  void receivedBlock(SimTime t, long blockId, double sizeBytes,
                     std::string_view srcIp);
  void deletingBlock(SimTime t, long blockId);

 private:
  LogLine line_;
};

}  // namespace asdf::hadooplog
