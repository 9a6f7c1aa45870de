#include "syscalls/trace_model.h"

#include <algorithm>
#include <cmath>

namespace asdf::syscalls {
namespace {

const char* kNames[kSyscallKinds] = {
    "read",       "write", "fsync", "sendto", "recvfrom",
    "epoll_wait", "futex", "nanosleep", "mmap", "clone",
};

}  // namespace

const char* syscallName(Syscall s) {
  return kNames[static_cast<std::size_t>(s)];
}

SyscallTraceModel::SyscallTraceModel(Params params, Rng rng)
    : params_(params), rng_(rng) {}

void SyscallTraceModel::record(const metrics::NodeActivity& a, int hungTasks,
                               int spinningTasks) {
  // Expected call counts per category for this second, derived from
  // what the node actually did. 64 KiB per read/write call; one
  // socket call per ~8 KiB (Hadoop's io.file.buffer.size era).
  rates_[static_cast<std::size_t>(Syscall::kRead)] =
      a.diskReadBytes / 65536.0;
  rates_[static_cast<std::size_t>(Syscall::kWrite)] =
      a.diskWriteBytes / 65536.0;
  rates_[static_cast<std::size_t>(Syscall::kFsync)] =
      a.diskWriteBytes > 0 ? 2.0 : 0.0;
  rates_[static_cast<std::size_t>(Syscall::kSocketSend)] =
      a.netTxBytes / 8192.0;
  rates_[static_cast<std::size_t>(Syscall::kSocketRecv)] =
      a.netRxBytes / 8192.0;
  rates_[static_cast<std::size_t>(Syscall::kEpollWait)] =
      4.0 + (a.netRxBytes + a.netTxBytes) / 16384.0;
  // A wedged task spins through pthread_cond_timedwait: a storm of
  // futex + nanosleep that dwarfs the node's normal call mix.
  rates_[static_cast<std::size_t>(Syscall::kFutex)] =
      8.0 + 10.0 * a.cpuUserCores + 1600.0 * hungTasks;
  rates_[static_cast<std::size_t>(Syscall::kNanosleep)] =
      2.0 + 400.0 * hungTasks;
  rates_[static_cast<std::size_t>(Syscall::kMmap)] =
      0.5 + 2.0 * a.forks;
  rates_[static_cast<std::size_t>(Syscall::kClone)] = a.forks;
  // A spinning task makes almost no calls: it *suppresses* the node's
  // expected baseline share.
  if (spinningTasks > 0) {
    rates_[static_cast<std::size_t>(Syscall::kFutex)] *= 0.3;
    rates_[static_cast<std::size_t>(Syscall::kEpollWait)] *= 0.3;
  }

  double total = 0.0;
  for (double r : rates_) total += r;
  events_ = total <= 0.0 ? 0
                         : static_cast<std::size_t>(std::min(
                               static_cast<double>(params_.maxEventsPerSecond),
                               total));
  if (attached_) draw();
}

void SyscallTraceModel::attachConsumer() {
  if (attached_) return;
  attached_ = true;
  draw();
}

const TraceSecond& SyscallTraceModel::trace() {
  attachConsumer();
  return trace_;
}

void SyscallTraceModel::draw() {
  trace_.clear();
  // Emit with short runs per category (real traces show bursts:
  // sequential reads, futex storms), not i.i.d. draws — the Markov
  // analysis keys on exactly this structure.
  while (trace_.size() < events_) {
    const auto kind = static_cast<std::uint8_t>(rng_.weightedIndex(rates_));
    const long run = rng_.uniformInt(1, 4);
    for (long i = 0; i < run && trace_.size() < events_; ++i) {
      trace_.push_back(kind);
    }
  }
}

}  // namespace asdf::syscalls
