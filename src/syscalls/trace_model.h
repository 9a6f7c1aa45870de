// System-call trace substrate — the paper's Section 5 extension:
// "We are currently developing new ASDF modules, including a strace
// module that tracks all of the system calls made by a given process.
// We envision using this module to detect and diagnose anomalies by
// building a probabilistic model of the order and timing of system
// calls and checking for patterns that correspond to problems."
//
// Since no live processes exist here, the substrate synthesizes the
// per-second syscall stream a TaskTracker's task JVMs would emit,
// driven by the same node activity that drives the OS counters: CPU
// work produces long stretches of userland (few syscalls), disk work
// produces read/write/fsync bursts, network work produces
// socket/epoll chatter, idle and hung processes sit in futex/nanosleep
// loops. Faults therefore reshape the *sequence statistics* in
// characteristic ways — exactly the signal the strace analysis models.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "metrics/os_model.h"

namespace asdf::syscalls {

/// Coarse syscall categories (what an strace-based monitor would
/// bucket the raw calls into).
enum class Syscall : std::uint8_t {
  kRead = 0,
  kWrite,
  kFsync,
  kSocketSend,
  kSocketRecv,
  kEpollWait,
  kFutex,
  kNanosleep,
  kMmap,
  kClone,
};
inline constexpr std::size_t kSyscallKinds = 10;

const char* syscallName(Syscall s);

/// One second of traced syscalls (category ids, in emission order).
using TraceSecond = std::vector<std::uint8_t>;

/// Generates per-second syscall traces from node activity.
///
/// Every second is recorded (category rates and an event count), but a
/// trace is drawn only once a consumer is attached: from then on every
/// recorded second draws, read or not, so the stream does not depend on
/// which seconds a consumer reads. Attached before the first record, it
/// is the stream of a model that draws every second; a model nobody
/// consumes never draws.
class SyscallTraceModel {
 public:
  struct Params {
    /// Upper bound on events recorded per second (strace buffers are
    /// sampled in production to bound overhead).
    std::size_t maxEventsPerSecond = 256;
  };

  SyscallTraceModel(Params params, Rng rng);

  /// Records one second of the given activity, replacing the previous
  /// second, and draws its trace if a consumer is attached.
  /// `hungTasks` injects the futex/nanosleep signature of a wedged
  /// process; `spinningTasks` the no-syscall signature of a CPU spin.
  void record(const metrics::NodeActivity& activity, int hungTasks = 0,
              int spinningTasks = 0);

  /// Attaches a consumer (idempotent): draws the recorded second, if
  /// any, and every later one.
  void attachConsumer();

  /// The trace of the recorded second (empty before the first record).
  /// Attaches a consumer if none is.
  const TraceSecond& trace();

 private:
  void draw();  // the recorded second's trace into trace_

  Params params_;
  Rng rng_;
  std::array<double, kSyscallKinds> rates_{};
  std::size_t events_ = 0;
  bool attached_ = false;
  TraceSecond trace_;  // reused buffer
};

}  // namespace asdf::syscalls
