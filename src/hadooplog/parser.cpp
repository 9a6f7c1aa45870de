#include "hadooplog/parser.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>

#include "common/strings.h"

namespace asdf::hadooplog {
namespace {

// A log line looks like:
//   2008-04-15 14:23:15,324 INFO org.apache.hadoop....: <message>
// The timestamp is the first 23 characters; the message follows the
// first ": " after the class name. Lines are read in place: the time,
// message and tokens are views into the caller's line.
bool splitLine(std::string_view line, SimTime& time,
               std::string_view& message) {
  if (line.size() < kLogTimestampLen + 4) return false;
  time = parseLogTimestamp(line.substr(0, kLogTimestampLen));
  if (time == kNoTime) return false;
  // Skip past "<class>: " — the first ": " after the level field.
  const std::size_t colon = line.find(": ", kLogTimestampLen);
  if (colon == std::string_view::npos) return false;
  message = line.substr(colon + 2);
  return true;
}

/// Extracts the task id following a prefix, e.g.
/// "LaunchTaskAction: task_0001_m_000096_0" -> "task_0001_m_000096_0".
std::string_view tokenAfter(std::string_view message,
                            std::string_view prefix) {
  const std::size_t pos = message.find(prefix);
  if (pos == std::string_view::npos) return {};
  std::size_t b = pos + prefix.size();
  std::size_t e = b;
  while (e < message.size() &&
         !std::isspace(static_cast<unsigned char>(message[e]))) {
    ++e;
  }
  return message.substr(b, e - b);
}

long toSecond(SimTime t) { return static_cast<long>(std::floor(t)); }

}  // namespace

// ---------------------------------------------------------------------------
// StateCounter

StateCounter::StateCounter(std::size_t stateCount)
    : stateCount_(stateCount),
      counter_(stateCount, 0.0),
      activeAtStart_(stateCount, 0.0),
      entrances_(stateCount, 0.0),
      instants_(stateCount, 0.0) {}

void StateCounter::startAt(long second) {
  if (!started_) {
    started_ = true;
    currentSecond_ = second;
  }
}

void StateCounter::advanceTo(long second) {
  if (!started_) {
    started_ = true;
    currentSecond_ = second;
    return;
  }
  // A line time-stamped before the current bucket (clock skew or a
  // buffered writer) is folded into the current bucket rather than
  // rewriting history: finalized samples are immutable.
  while (currentSecond_ < second) {
    finalizeCurrent();
  }
}

void StateCounter::finalizeCurrent() {
  StateSample sample;
  sample.second = currentSecond_;
  sample.counts.resize(stateCount_);
  for (std::size_t s = 0; s < stateCount_; ++s) {
    // Everything open at the start of the second, plus everything that
    // entered during it (covers short-lived states), plus instants.
    sample.counts[s] = activeAtStart_[s] + entrances_[s] + instants_[s];
  }
  ready_.push_back(std::move(sample));
  activeAtStart_ = counter_;
  std::fill(entrances_.begin(), entrances_.end(), 0.0);
  std::fill(instants_.begin(), instants_.end(), 0.0);
  ++currentSecond_;
}

void StateCounter::entrance(long second, int state) {
  assert(state >= 0 && static_cast<std::size_t>(state) < stateCount_);
  advanceTo(second);
  counter_[static_cast<std::size_t>(state)] += 1.0;
  entrances_[static_cast<std::size_t>(state)] += 1.0;
}

void StateCounter::exit(long second, int state) {
  assert(state >= 0 && static_cast<std::size_t>(state) < stateCount_);
  advanceTo(second);
  auto& c = counter_[static_cast<std::size_t>(state)];
  c = std::max(0.0, c - 1.0);  // tolerate exit-without-entrance
}

void StateCounter::instant(long second, int state) {
  assert(state >= 0 && static_cast<std::size_t>(state) < stateCount_);
  advanceTo(second);
  instants_[static_cast<std::size_t>(state)] += 1.0;
}

std::vector<StateSample> StateCounter::drain(long beforeSecond) {
  std::vector<StateSample> out;
  drain(beforeSecond, out);
  return out;
}

void StateCounter::drain(long beforeSecond, std::vector<StateSample>& out) {
  out.clear();
  if (started_) {
    while (currentSecond_ < beforeSecond) finalizeCurrent();
  }
  while (!ready_.empty() && ready_.front().second < beforeSecond) {
    out.push_back(std::move(ready_.front()));
    ready_.pop_front();
  }
}

double StateCounter::openCount(int state) const {
  assert(state >= 0 && static_cast<std::size_t>(state) < stateCount_);
  return counter_[static_cast<std::size_t>(state)];
}

// ---------------------------------------------------------------------------
// TtLogParser

TtLogParser::TtLogParser() : counter_(kTtStateCount) {}

void TtLogParser::consume(std::span<const std::string> lines) {
  for (const auto& line : lines) handleLine(line);
}

void TtLogParser::closeTask(long second, std::string_view taskId) {
  auto it = tasks_.find(taskId);
  if (it == tasks_.end()) return;
  if (it->second.phase >= 0) counter_.exit(second, it->second.phase);
  counter_.exit(second, static_cast<int>(it->second.isMap
                                             ? TtState::kMapTask
                                             : TtState::kReduceTask));
  tasks_.erase(it);
}

void TtLogParser::handleLine(std::string_view line) {
  SimTime t = 0.0;
  std::string_view msg;
  if (!splitLine(line, t, msg)) {
    ++ignored_;
    return;
  }
  const long second = toSecond(t);
  lastSeenSecond_ = std::max(lastSeenSecond_, second);

  if (startsWith(msg, "LaunchTaskAction: ")) {
    const std::string_view taskId = tokenAfter(msg, "LaunchTaskAction: ");
    if (taskId.empty()) {
      ++ignored_;
      return;
    }
    const bool isMap = contains(taskId, "_m_");
    tasks_.insert_or_assign(std::string(taskId), OpenTask{isMap, -1});
    counter_.entrance(second, static_cast<int>(isMap ? TtState::kMapTask
                                                     : TtState::kReduceTask));
    return;
  }
  if (startsWith(msg, "Task ")) {
    // "Task <id> is done." or "Task <id> failed: ..."
    const std::string_view taskId = tokenAfter(msg, "Task ");
    if (!taskId.empty() &&
        (contains(msg, "is done") || contains(msg, "failed"))) {
      closeTask(second, taskId);
      return;
    }
    ++ignored_;
    return;
  }
  if (startsWith(msg, "KillTaskAction: ")) {
    const std::string_view taskId = tokenAfter(msg, "KillTaskAction: ");
    closeTask(second, taskId);
    return;
  }
  if (contains(msg, "copy failed: ")) {
    return;  // WARN diagnostics; no state change
  }
  if (startsWith(msg, "task_")) {
    // Progress line: "task_X 12.00% reduce > copy (3 of 24)" or a map
    // progress line "task_X 50.00% hdfs://input".
    const std::string_view taskId = tokenAfter(msg, "");
    auto it = tasks_.find(taskId);
    if (it == tasks_.end()) {
      // Progress for a task whose launch we never saw (e.g. the
      // monitor attached mid-run). Synthesize the entrance so the
      // state counting stays consistent.
      const bool isMap = contains(taskId, "_m_");
      it = tasks_.emplace(std::string(taskId), OpenTask{isMap, -1}).first;
      counter_.entrance(second, static_cast<int>(
                                    isMap ? TtState::kMapTask
                                          : TtState::kReduceTask));
    }
    if (!contains(msg, "reduce > ")) return;  // map progress: no phases
    int phase = -1;
    if (contains(msg, "reduce > copy")) {
      phase = static_cast<int>(TtState::kReduceCopy);
    } else if (contains(msg, "reduce > sort")) {
      phase = static_cast<int>(TtState::kReduceSort);
    } else if (contains(msg, "reduce > reduce")) {
      phase = static_cast<int>(TtState::kReduceReduce);
    } else {
      ++ignored_;
      return;
    }
    if (it->second.phase != phase) {
      if (it->second.phase >= 0) counter_.exit(second, it->second.phase);
      counter_.entrance(second, phase);
      it->second.phase = phase;
    }
    return;
  }
  ++ignored_;
}

void TtLogParser::poll(SimTime watermark, std::vector<StateSample>& out,
                       double graceSeconds) {
  const long logFinal = lastSeenSecond_;  // seconds < this are final
  const long graceFinal = toSecond(watermark - graceSeconds) + 1;
  counter_.drain(std::max(logFinal, graceFinal), out);
}

std::vector<StateSample> TtLogParser::poll(SimTime watermark,
                                           double graceSeconds) {
  std::vector<StateSample> out;
  poll(watermark, out, graceSeconds);
  return out;
}

// ---------------------------------------------------------------------------
// DnLogParser

DnLogParser::DnLogParser() : counter_(kDnStateCount) {}

void DnLogParser::consume(std::span<const std::string> lines) {
  for (const auto& line : lines) handleLine(line);
}

void DnLogParser::handleLine(std::string_view line) {
  SimTime t = 0.0;
  std::string_view msg;
  if (!splitLine(line, t, msg)) {
    ++ignored_;
    return;
  }
  const long second = toSecond(t);
  lastSeenSecond_ = std::max(lastSeenSecond_, second);

  if (startsWith(msg, "Serving block ")) {
    const std::string_view block = tokenAfter(msg, "Serving block ");
    const std::string_view client = tokenAfter(msg, " to ");
    reads_[readKey(block, client)] = 1;
    counter_.entrance(second, static_cast<int>(DnState::kReadBlock));
    return;
  }
  if (startsWith(msg, "Served block ")) {
    const std::string_view block = tokenAfter(msg, "Served block ");
    const std::string_view client = tokenAfter(msg, " to ");
    const auto it = reads_.find(readKey(block, client));
    if (it != reads_.end()) {
      reads_.erase(it);
      counter_.exit(second, static_cast<int>(DnState::kReadBlock));
    }
    return;
  }
  if (startsWith(msg, "Receiving block ")) {
    const std::string_view block = tokenAfter(msg, "Receiving block ");
    long id = 0;
    if (block.size() > 4 && parseInt(block.substr(4), id)) {
      writes_[id] = 1;
      counter_.entrance(second, static_cast<int>(DnState::kWriteBlock));
    } else {
      ++ignored_;
    }
    return;
  }
  if (startsWith(msg, "Received block ")) {
    const std::string_view block = tokenAfter(msg, "Received block ");
    long id = 0;
    if (block.size() > 4 && parseInt(block.substr(4), id)) {
      const auto it = writes_.find(id);
      if (it != writes_.end()) {
        writes_.erase(it);
        counter_.exit(second, static_cast<int>(DnState::kWriteBlock));
      }
    } else {
      ++ignored_;
    }
    return;
  }
  if (startsWith(msg, "Deleting block ")) {
    counter_.instant(second, static_cast<int>(DnState::kDeleteBlock));
    return;
  }
  ++ignored_;
}

const std::string& DnLogParser::readKey(std::string_view block,
                                        std::string_view client) {
  key_.assign(block);
  key_ += ' ';
  key_ += client;
  return key_;
}

void DnLogParser::poll(SimTime watermark, std::vector<StateSample>& out,
                       double graceSeconds) {
  const long logFinal = lastSeenSecond_;
  const long graceFinal = toSecond(watermark - graceSeconds) + 1;
  counter_.drain(std::max(logFinal, graceFinal), out);
}

std::vector<StateSample> DnLogParser::poll(SimTime watermark,
                                           double graceSeconds) {
  std::vector<StateSample> out;
  poll(watermark, out, graceSeconds);
  return out;
}

}  // namespace asdf::hadooplog
