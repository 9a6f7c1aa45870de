#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>

#include "net/socket.h"

namespace asdf::net {
namespace {

std::uint32_t toEpollEvents(bool wantRead, bool wantWrite) {
  std::uint32_t ev = 0;
  if (wantRead) ev |= EPOLLIN;
  if (wantWrite) ev |= EPOLLOUT;
  return ev;
}

[[noreturn]] void throwErrno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

}  // namespace

EventLoop::EventLoop() {
  epollFd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0) throwErrno("epoll_create1");
  wakeupFd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeupFd_ < 0) {
    close(epollFd_);
    throwErrno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeupFd_;
  if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeupFd_, &ev) < 0) {
    close(wakeupFd_);
    close(epollFd_);
    throwErrno("epoll_ctl(wakeup)");
  }
}

EventLoop::~EventLoop() {
  if (wakeupFd_ >= 0) close(wakeupFd_);
  if (epollFd_ >= 0) close(epollFd_);
}

void EventLoop::watchFd(int fd, bool wantRead, bool wantWrite,
                        FdCallback cb) {
  epoll_event ev{};
  ev.events = toEpollEvents(wantRead, wantWrite);
  ev.data.fd = fd;
  if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throwErrno("epoll_ctl(add)");
  }
  fds_[fd] = std::move(cb);
}

void EventLoop::modifyFd(int fd, bool wantRead, bool wantWrite) {
  epoll_event ev{};
  ev.events = toEpollEvents(wantRead, wantWrite);
  ev.data.fd = fd;
  if (epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    throwErrno("epoll_ctl(mod)");
  }
}

void EventLoop::unwatchFd(int fd) {
  if (fds_.erase(fd) == 0) return;
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::addTimer(double delaySeconds, TimerCallback cb) {
  const int id = nextTimerId_++;
  timers_[id] = std::move(cb);
  timerQueue_.push(Timer{monotonicSeconds() + std::max(0.0, delaySeconds),
                         nextTimerSeq_++, id});
  return id;
}

void EventLoop::cancelTimer(int id) { timers_.erase(id); }

int EventLoop::dispatchDueTimers() {
  int dispatched = 0;
  const double now = monotonicSeconds();
  while (!timerQueue_.empty() && timerQueue_.top().dueMonotonic <= now) {
    const Timer t = timerQueue_.top();
    timerQueue_.pop();
    const auto it = timers_.find(t.id);
    if (it == timers_.end()) continue;  // canceled
    TimerCallback cb = std::move(it->second);
    timers_.erase(it);
    cb();
    ++dispatched;
  }
  return dispatched;
}

int EventLoop::runOnce(double maxWaitSeconds) {
  // The wait ends at the earliest of: caller's cap, next timer.
  double wait = maxWaitSeconds;
  if (!timerQueue_.empty()) {
    const double untilTimer =
        std::max(0.0, timerQueue_.top().dueMonotonic - monotonicSeconds());
    wait = wait < 0 ? untilTimer : std::min(wait, untilTimer);
  }
  int timeoutMs = -1;
  if (wait >= 0) {
    timeoutMs = static_cast<int>(std::ceil(wait * 1000.0));
  }

  epoll_event events[64];
  int n = epoll_wait(epollFd_, events, 64, timeoutMs);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throwErrno("epoll_wait");
  }

  int dispatched = dispatchDueTimers();
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wakeupFd_) {
      std::uint64_t drain = 0;
      while (read(wakeupFd_, &drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    // The callback for an earlier event may have unwatched this fd.
    const auto it = fds_.find(fd);
    if (it == fds_.end()) continue;
    std::uint32_t flags = 0;
    if (events[i].events & (EPOLLIN | EPOLLPRI)) flags |= kReadable;
    if (events[i].events & EPOLLOUT) flags |= kWritable;
    if (events[i].events & (EPOLLHUP | EPOLLERR)) flags |= kClosed;
    it->second(fd, flags);
    ++dispatched;
  }
  return dispatched;
}

void EventLoop::run() {
  // Returns on the first stop() this loop has not yet returned for,
  // including one made before run() was entered; the stops seen are
  // then spent, so a later run() waits for a later stop().
  while (stopRequests_.load() == stopsSpent_) {
    runOnce(-1.0);
  }
  stopsSpent_ = stopRequests_.load();
  // Final non-blocking drain: readiness that raced with stop(), such as
  // a peer close, is dispatched instead of dropped, so observable
  // teardown state (connection counts, close callbacks) is
  // settled by the time run() returns. Without this, whether an EOF
  // that arrived just before stop() is processed depends on whether it
  // shared an epoll batch with the wakeup.
  runOnce(0.0);
}

void EventLoop::stop() {
  stopRequests_.fetch_add(1);
  const std::uint64_t one = 1;
  // Best-effort: run() also re-checks the stop count after every wait.
  [[maybe_unused]] ssize_t n = write(wakeupFd_, &one, sizeof(one));
}

}  // namespace asdf::net
