// Non-blocking event loop for the live collection plane.
//
// One epoll instance multiplexes listening sockets, per-connection
// sockets and a wakeup eventfd; one-shot timers ride on the epoll
// timeout (min-heap of deadlines — no timerfd per timer). asdf_rpcd
// runs a single EventLoop thread, which is what makes the served
// cluster simulation deterministic: requests are handled in arrival
// order, never concurrently.
//
// Level-triggered, single-threaded by design. Only stop() may be
// called from another thread (it signals the wakeup fd); everything
// else must run on the loop thread. Nothing crosses loops: each shard
// of the sharded plane accepts on its own listener.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "common/error.h"

namespace asdf::net {

/// Thrown on socket/epoll layer failures (bind in use, epoll_ctl, …).
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

class EventLoop {
 public:
  /// Bitmask handed to fd callbacks.
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;
  static constexpr std::uint32_t kClosed = 1u << 2;  // HUP / ERR

  using FdCallback = std::function<void(int fd, std::uint32_t events)>;
  using TimerCallback = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers a callback for readiness events on `fd`. The loop does
  /// not own the fd; unwatch before closing it.
  void watchFd(int fd, bool wantRead, bool wantWrite, FdCallback cb);
  void modifyFd(int fd, bool wantRead, bool wantWrite);
  void unwatchFd(int fd);

  /// One-shot timer `delaySeconds` from now; returns an id usable with
  /// cancelTimer.
  int addTimer(double delaySeconds, TimerCallback cb);
  void cancelTimer(int id);

  /// Waits up to `maxWaitSeconds` (forever when < 0) for readiness or
  /// a timer, dispatches everything due, and returns the number of
  /// callbacks run. Returns promptly on stop().
  int runOnce(double maxWaitSeconds);

  /// Dispatches until stop() is called. A stop() that comes before
  /// run() is kept: run() then returns at once. The loop may run again;
  /// the next run() waits for the next stop().
  void run();

  /// Thread-safe: wakes the loop and makes run() return.
  void stop();

  /// Whether stop() has ever been called.
  bool stopped() const { return stopRequests_.load() != 0; }
  std::size_t watchedFds() const { return fds_.size(); }

 private:
  struct Timer {
    double dueMonotonic;
    std::uint64_t seq;
    int id;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.dueMonotonic != b.dueMonotonic) {
        return a.dueMonotonic > b.dueMonotonic;
      }
      return a.seq > b.seq;
    }
  };

  int dispatchDueTimers();

  int epollFd_ = -1;
  int wakeupFd_ = -1;
  std::map<int, FdCallback> fds_;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timerQueue_;
  std::map<int, TimerCallback> timers_;  // id -> callback (empty = canceled)
  int nextTimerId_ = 1;
  std::uint64_t nextTimerSeq_ = 0;
  std::atomic<std::uint64_t> stopRequests_{0};
  std::uint64_t stopsSpent_ = 0;  // stop requests run() has returned for
};

}  // namespace asdf::net
