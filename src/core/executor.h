// Pluggable execution back-ends for the fpt-core wavefront scheduler.
//
// The scheduler (fpt_core.cpp) decides *what* is ready to run — the
// topological wavefront of module instances at the current virtual
// tick — and an Executor decides *how* those runs are carried out:
//
//   SerialExecutor      runs every task inline, in submission order.
//                       Bit-reproducible: same configuration + seed
//                       produce the same alarms in the same order.
//   ThreadPoolExecutor  runs the tasks of one batch concurrently on a
//                       persistent worker pool, restoring the paper's
//                       thread-per-module concurrency (Section 3.1
//                       spawns one thread per module instance). Output
//                       visibility is still barriered per wavefront
//                       level, so alarm *content* matches the serial
//                       executor; only intra-level wall-clock
//                       interleaving differs.
//
// A batch is one wavefront level, handed over as a few *chunks*. The
// scheduler splits a level into serial groups (runs sharing an
// exclusivity domain), then cuts the groups, in configuration order,
// into contiguous chunks of similar run counts: exactly one chunk when
// concurrency() is 1, at most kChunksPerWorker x concurrency()
// otherwise. A chunk is one task: it runs its groups in order on one
// thread and is metered once (two thread-CPU clock reads), and a pool
// worker takes the mutex once per chunk, not once per group. A group
// that throws ends its chunk, so the chunk's later groups do not run
// in that wavefront; the lowest-indexed throwing group's exception is
// the one rethrown, as the chunks are contiguous.
//
// Executors are deliberately dumb: a batch of opaque closures, run to
// completion, first exception rethrown after the barrier. All DAG
// knowledge (levels, exclusivity domains, chunking, deterministic
// notification merging) stays in the scheduler, which is what makes
// the back-end swappable from the command line (`asdfd --threads N`)
// without any semantic change.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace asdf::core {

/// Upper bound on the chunks a level is cut into, per unit of
/// concurrency(): a few per worker, so a worker that finishes early
/// can take another while lock traffic and meter reads stay fixed.
inline constexpr int kChunksPerWorker = 4;

class Executor {
 public:
  using Task = std::function<void()>;

  virtual ~Executor() = default;

  /// Human-readable back-end name ("serial", "pool(4)").
  virtual const std::string& name() const = 0;

  /// Upper bound on tasks the executor may run concurrently.
  virtual int concurrency() const = 0;

  /// Runs every task in `batch` to completion (the level barrier).
  /// Tasks within one batch must be independent; the executor may run
  /// them in any order. If tasks throw, the exception of the
  /// lowest-indexed throwing task is rethrown after all tasks ended.
  virtual void runBatch(std::vector<Task>& batch) = 0;
};

/// Inline, in-order execution — the deterministic default.
class SerialExecutor final : public Executor {
 public:
  const std::string& name() const override { return name_; }
  int concurrency() const override { return 1; }
  void runBatch(std::vector<Task>& batch) override;

 private:
  std::string name_ = "serial";
};

/// Persistent worker pool. Workers sit on a condition variable between
/// batches; runBatch publishes the batch, wakes them, and blocks until
/// the last task finished (the barrier the scheduler relies on).
class ThreadPoolExecutor final : public Executor {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPoolExecutor(int threads);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  const std::string& name() const override { return name_; }
  int concurrency() const override { return static_cast<int>(workers_.size()); }
  void runBatch(std::vector<Task>& batch) override;

 private:
  void workerLoop();

  std::string name_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;   // workers wait for a new batch
  std::condition_variable done_;   // runBatch waits for completion
  std::vector<Task>* batch_ = nullptr;
  std::vector<std::exception_ptr> errors_;
  std::size_t nextIndex_ = 0;
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

/// `threads <= 1` → SerialExecutor, otherwise ThreadPoolExecutor.
std::unique_ptr<Executor> makeExecutor(int threads);

}  // namespace asdf::core
