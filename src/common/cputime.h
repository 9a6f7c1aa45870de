// Host time metering for Table 3.
//
// The paper's Table 3 reports the CPU cost of the collection daemons
// and of fpt-core. We meter the time the host process spends inside
// those components while the simulation runs, and the Table 3 bench
// divides by the simulated duration to report "% CPU".
//
// Two clocks, chosen by what each reading costs against what it
// brackets. CLOCK_THREAD_CPUTIME_ID is a real syscall (about 330 ns on
// a 4-vCPU VM); CLOCK_MONOTONIC is read through the vDSO (about 40 ns).
// fpt-core meters real thread CPU, once per executor task, where a task
// is a chunk of module runs. The in-process daemons' fetches are pure
// in-memory work of well under a microsecond that never blocks, so they
// meter on-thread busy time from the steady clock: a thread-CPU read
// per fetch would cost about as much as the fetch it brackets.
#pragma once

#include <atomic>
#include <ctime>

namespace asdf {

namespace detail {
inline double clockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace detail

/// CPU seconds consumed by the calling thread so far (a syscall).
inline double threadCpuSeconds() {
  return detail::clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

/// Steady-clock seconds since an arbitrary epoch (vDSO, no syscall).
inline double steadySeconds() {
  return detail::clockSeconds(CLOCK_MONOTONIC);
}

/// Accumulates the time `Clock` advances across RAII scopes.
/// Thread-safe: scopes may close concurrently (fpt-core's parallel
/// executors meter chunks from several worker threads; per-thread CPU
/// clocks sum to the total process cost, which is what Table 3
/// reports).
template <double (*Clock)()>
class BasicMeter {
 public:
  class Scope {
   public:
    explicit Scope(BasicMeter& meter) : meter_(meter), start_(Clock()) {}
    ~Scope() { meter_.add(Clock() - start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BasicMeter& meter_;
    double start_;
  };

  double seconds() const { return seconds_.load(std::memory_order_relaxed); }
  void reset() { seconds_.store(0.0, std::memory_order_relaxed); }

 private:
  void add(double delta) {
    double current = seconds_.load(std::memory_order_relaxed);
    while (!seconds_.compare_exchange_weak(current, current + delta,
                                           std::memory_order_relaxed)) {
    }
  }
  std::atomic<double> seconds_{0.0};
};

/// Thread CPU time: two syscalls per scope.
using CpuMeter = BasicMeter<threadCpuSeconds>;
/// On-thread busy time from the steady clock: for short in-memory work
/// that never blocks, where it equals CPU time at an eighth of the cost.
using BusyMeter = BasicMeter<steadySeconds>;

}  // namespace asdf
