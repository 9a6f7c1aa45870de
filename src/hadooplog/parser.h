// The hadoop-log parser library: text log lines -> events -> DFA
// states -> per-second state vectors (Section 4.4 of the paper).
//
// Each log entry is interpreted as a state-entrance event, a
// state-exit event, or an instant event (immediate entrance + exit,
// e.g. block deletion). The parser maintains a minimal amount of
// state across entries (open tasks and block transfers) and, per time
// instance (1-second bucket), reports how many instances of each state
// were simultaneously executing — counting short-lived states whose
// entrance and exit fall within the same instance.
//
// Parsing is lazy and on-demand: consume() takes raw lines (typically
// the tail of a LogBuffer since the previous poll) and drain() releases
// the per-second vectors that are *final*, i.e. those seconds the log
// has moved past (a later timestamp was seen) or that fell behind the
// caller-supplied watermark by the flush grace. This reproduces the
// real system's behaviour of "occasionally needing to delay one or two
// iterations to resolve values for recent log entries" (Section 3.7).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "hadooplog/states.h"

namespace asdf::hadooplog {

/// One finalized per-second sample.
struct StateSample {
  long second = 0;              // simulated second this sample covers
  std::vector<double> counts;   // one entry per state
};

/// Shared per-second counting logic for both log types.
class StateCounter {
 public:
  explicit StateCounter(std::size_t stateCount);

  /// Anchors the clock: seconds from `second` on are reported even if
  /// no event ever arrives (a quiet node yields all-zero vectors).
  /// Without an anchor the first event starts the clock.
  void startAt(long second);

  void entrance(long second, int state);
  void exit(long second, int state);
  void instant(long second, int state);

  /// Finalizes and returns every second strictly before `beforeSecond`.
  std::vector<StateSample> drain(long beforeSecond);
  /// The same, moved into `out` (cleared first), reusing its capacity.
  void drain(long beforeSecond, std::vector<StateSample>& out);

  /// Count of instances currently open (for tests / invariants).
  double openCount(int state) const;

 private:
  void advanceTo(long second);
  void finalizeCurrent();

  std::size_t stateCount_;
  bool started_ = false;
  long currentSecond_ = 0;
  std::vector<double> counter_;        // open instances right now
  std::vector<double> activeAtStart_;  // open at start of currentSecond_
  std::vector<double> entrances_;      // entrances during currentSecond_
  std::vector<double> instants_;       // instant events during currentSecond_
  std::deque<StateSample> ready_;
};

/// Parser for TaskTracker logs.
class TtLogParser {
 public:
  TtLogParser();

  /// Anchors the per-second clock at the monitoring start time, so a
  /// quiet TaskTracker still yields zero-valued samples.
  void startAt(long second) { counter_.startAt(second); }

  /// Feeds raw log lines (in file order).
  void consume(std::span<const std::string> lines);

  /// Finalized per-second vectors (kTtStateCount wide), into `out`
  /// (cleared first). `watermark` is the caller's current time; seconds
  /// older than watermark - grace are flushed even without a newer log
  /// line.
  void poll(SimTime watermark, std::vector<StateSample>& out,
            double graceSeconds = 2.0);
  std::vector<StateSample> poll(SimTime watermark, double graceSeconds = 2.0);

  /// Number of tasks currently believed to be executing.
  std::size_t openTaskCount() const { return tasks_.size(); }

  /// Lines that could not be interpreted (diagnostics; unknown lines
  /// are skipped, not fatal — production logs contain noise).
  std::size_t ignoredLineCount() const { return ignored_; }

 private:
  struct OpenTask {
    bool isMap = false;
    int phase = -1;  // TtState of the active reduce phase, -1 if none
  };

  void handleLine(std::string_view line);
  void closeTask(long second, std::string_view taskId);

  StateCounter counter_;
  std::map<std::string, OpenTask, std::less<>> tasks_;  // find by view
  long lastSeenSecond_ = -1;
  std::size_t ignored_ = 0;
};

/// Parser for DataNode logs.
class DnLogParser {
 public:
  DnLogParser();

  /// Anchors the per-second clock at the monitoring start time.
  void startAt(long second) { counter_.startAt(second); }

  void consume(std::span<const std::string> lines);
  void poll(SimTime watermark, std::vector<StateSample>& out,
            double graceSeconds = 2.0);
  std::vector<StateSample> poll(SimTime watermark, double graceSeconds = 2.0);

  std::size_t openTransferCount() const {
    return reads_.size() + writes_.size();
  }
  std::size_t ignoredLineCount() const { return ignored_; }

 private:
  void handleLine(std::string_view line);
  /// "<block> <client>" in key_, reused across lines.
  const std::string& readKey(std::string_view block, std::string_view client);

  StateCounter counter_;
  std::map<std::string, char> reads_;   // "blk to client" -> open
  std::string key_;
  std::map<long, char> writes_;         // blockId -> open
  long lastSeenSecond_ = -1;
  std::size_t ignored_ = 0;
};

}  // namespace asdf::hadooplog
