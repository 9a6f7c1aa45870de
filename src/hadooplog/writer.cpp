#include "hadooplog/writer.h"

#include <charconv>

#include "common/strings.h"

namespace asdf::hadooplog {
namespace {

constexpr std::string_view kTtClass = "org.apache.hadoop.mapred.TaskTracker";
constexpr std::string_view kDnClass = "org.apache.hadoop.dfs.DataNode";

}  // namespace

std::string makeTaskAttemptId(int jobId, bool isMap, int taskIndex,
                              int attempt) {
  return strformat("task_%04d_%c_%06d_%d", jobId, isMap ? 'm' : 'r',
                   taskIndex, attempt);
}

// ---------------------------------------------------------------------------
// LogLine

LogLine& LogLine::start(SimTime t, std::string_view level) {
  line_.clear();
  appendLogTimestamp(line_, t);
  line_ += ' ';
  line_ += level;
  line_ += ' ';
  line_ += cls_;
  line_ += ": ";
  return *this;
}

LogLine& LogLine::operator<<(std::string_view text) {
  line_ += text;
  return *this;
}

LogLine& LogLine::operator<<(long value) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  line_.append(buf, r.ptr);
  return *this;
}

LogLine& LogLine::fixed(double value, int precision) {
  // Room for the widest double in fixed notation (309 integer digits).
  char buf[400];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::fixed, precision);
  line_.append(buf, r.ptr);
  return *this;
}

void LogLine::commit() { buffer_->append(line_); }

// ---------------------------------------------------------------------------
// TtLogWriter

TtLogWriter::TtLogWriter(LogBuffer* buffer) : line_(buffer, kTtClass) {}

void TtLogWriter::launchTask(SimTime t, std::string_view taskId) {
  line_.start(t, "INFO") << "LaunchTaskAction: " << taskId;
  line_.commit();
}

void TtLogWriter::taskDone(SimTime t, std::string_view taskId) {
  line_.start(t, "INFO") << "Task " << taskId << " is done.";
  line_.commit();
}

void TtLogWriter::taskFailed(SimTime t, std::string_view taskId,
                             std::string_view reason) {
  line_.start(t, "WARN") << "Task " << taskId << " failed: " << reason;
  line_.commit();
}

void TtLogWriter::killTask(SimTime t, std::string_view taskId) {
  line_.start(t, "INFO") << "KillTaskAction: " << taskId;
  line_.commit();
}

void TtLogWriter::mapProgress(SimTime t, std::string_view taskId,
                              double fraction) {
  line_.start(t, "INFO") << taskId << " ";
  line_.fixed(fraction * 100.0, 2) << "% hdfs://input";
  line_.commit();
}

void TtLogWriter::reduceProgress(SimTime t, std::string_view taskId,
                                 double fraction, std::string_view phase,
                                 int copiedMaps, int totalMaps) {
  line_.start(t, "INFO") << taskId << " ";
  line_.fixed(fraction * 100.0, 2)
      << "% reduce > " << phase << " (" << copiedMaps << " of " << totalMaps
      << ")";
  line_.commit();
}

void TtLogWriter::copyFailed(SimTime t, std::string_view taskId,
                             std::string_view mapTaskId) {
  line_.start(t, "WARN")
      << taskId << " copy failed: " << mapTaskId
      << " java.io.IOException: failed to rename map output";
  line_.commit();
}

// ---------------------------------------------------------------------------
// DnLogWriter

DnLogWriter::DnLogWriter(LogBuffer* buffer) : line_(buffer, kDnClass) {}

void DnLogWriter::servingBlock(SimTime t, long blockId,
                               std::string_view clientIp) {
  line_.start(t, "INFO") << "Serving block blk_" << blockId << " to /"
                         << clientIp;
  line_.commit();
}

void DnLogWriter::servedBlock(SimTime t, long blockId,
                              std::string_view clientIp) {
  line_.start(t, "INFO") << "Served block blk_" << blockId << " to /"
                         << clientIp;
  line_.commit();
}

void DnLogWriter::receivingBlock(SimTime t, long blockId,
                                 std::string_view srcIp,
                                 std::string_view destIp) {
  line_.start(t, "INFO") << "Receiving block blk_" << blockId << " src: /"
                         << srcIp << ":50010 dest: /" << destIp << ":50010";
  line_.commit();
}

void DnLogWriter::receivedBlock(SimTime t, long blockId, double sizeBytes,
                                std::string_view srcIp) {
  line_.start(t, "INFO") << "Received block blk_" << blockId << " of size ";
  line_.fixed(sizeBytes, 0) << " from /" << srcIp;
  line_.commit();
}

void DnLogWriter::deletingBlock(SimTime t, long blockId) {
  line_.start(t, "INFO") << "Deleting block blk_" << blockId
                         << " file /hadoop/dfs/data/current/blk_" << blockId;
  line_.commit();
}

}  // namespace asdf::hadooplog
