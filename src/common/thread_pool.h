#ifndef RCC_COMMON_THREAD_POOL_H_
#define RCC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rcc {

/// A fixed pool of worker threads executing submitted tasks FIFO. Used by the
/// concurrent query-execution layer (`RccSystem::ExecuteConcurrent`) to run
/// read-only sessions in parallel between virtual-clock ticks.
///
/// Tasks must not throw (the library is exception-free) and must not submit
/// further tasks into the same pool from within a task (no nesting — a query
/// is one task).
///
/// Shutdown semantics are deterministic: every task accepted by Submit runs
/// exactly once — Shutdown (and the destructor) drain the queue before
/// joining — and once shutdown has begun Submit rejects instead of
/// enqueueing, so no task can be accepted and then silently dropped. Callers
/// that want to abandon queued work ask explicitly with CancelPending.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Equivalent to Shutdown(): drains pending tasks, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task (fire-and-forget). Returns false — without
  /// enqueueing — once Shutdown has begun: an accepted task is guaranteed
  /// to run, a rejected one is guaranteed not to have been.
  bool Submit(std::function<void()> task);

  /// Runs `tasks` across the pool and blocks until every one has finished.
  /// Tasks may complete in any order; callers that need ordered results
  /// should write into pre-sized slots indexed by task.
  void Run(std::vector<std::function<void()>> tasks);

  /// Stops accepting new tasks, waits for the queue to drain and every
  /// worker to finish, then joins them. Idempotent; safe to call before the
  /// destructor (which then does nothing).
  void Shutdown();

  /// Removes tasks that are queued but not yet started and returns how many
  /// were discarded. The pool stays usable. This is the explicit
  /// "reject queued work" escape hatch for force-stop paths.
  size_t CancelPending();

  /// Number of worker threads a caller should default to on this machine.
  static int DefaultWorkers();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace rcc

#endif  // RCC_COMMON_THREAD_POOL_H_
