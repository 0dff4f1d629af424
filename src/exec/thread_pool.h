/// \file thread_pool.h
/// \brief Fixed-size work-queue thread pool.
///
/// The execution runtime's only source of threads: a pool is created per
/// query (or shared by a caller) and drained on destruction. Workers pull
/// `std::function<void()>` tasks from a single locked queue — the tasks the
/// engine submits are shard-sized (thousands of Monte Carlo samples, one
/// answer-tuple marginal), so queue contention is negligible compared to the
/// work per task.
///
/// Shutdown is graceful: the destructor stops accepting new work, lets the
/// workers drain every task already queued, then joins them. Pending tasks
/// are never dropped — a caller blocked in `ParallelFor` (see parallel.h)
/// therefore always observes all of its bodies complete.

#ifndef PDB_EXEC_THREAD_POOL_H_
#define PDB_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdb {

/// A fixed set of worker threads sharing one FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(size_t num_threads);

  /// Stops accepting tasks, drains the queue, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`. Must not be called after (or concurrently with)
  /// destruction begins.
  void Submit(std::function<void()> task);

  /// Enqueues `task` only if the pool has spare capacity — a worker that is
  /// neither executing a task nor already spoken for by a queued one.
  /// Returns false (and does not take the task) when the pool is saturated
  /// or shutting down. This is the nesting-safe hook for recursive
  /// parallelism: work generated inside a pool task (nested parallel loops)
  /// calls TrySubmit and, on refusal, runs the work
  /// inline on the calling thread — so a full pool sheds load instead of
  /// stacking queued tasks it can only start after their parents finish.
  bool TrySubmit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// Total tasks executed by the workers so far.
  size_t tasks_executed() const;

  /// Number of hardware threads (at least 1).
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  size_t tasks_executed_ = 0;  // guarded by mu_
  size_t busy_workers_ = 0;    // guarded by mu_; workers executing a task
  bool stopping_ = false;      // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace pdb

#endif  // PDB_EXEC_THREAD_POOL_H_
