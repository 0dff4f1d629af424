#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace pdb {

namespace {

/// Shared between the caller and the helper tasks it submits. Heap-held via
/// shared_ptr: helpers may outlive the caller's wait (a helper that claimed
/// no index still touches the state when it exits).
struct LoopState {
  explicit LoopState(size_t n) : n(n) {}

  const size_t n;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;  // guarded by mu

  /// Claims indices until exhausted; returns bodies executed.
  size_t Run(const std::function<void(size_t)>& body) {
    size_t executed = 0;
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      body(i);
      ++executed;
    }
    if (executed > 0) {
      std::lock_guard<std::mutex> lock(mu);
      completed += executed;
      if (completed == n) done_cv.notify_all();
    }
    return executed;
  }
};

}  // namespace

void ParallelFor(ExecContext* ctx, size_t n,
                 const std::function<void(size_t)>& body) {
  if (n == 0) return;
  ThreadPool* pool = ctx ? ctx->pool() : nullptr;
  if (pool == nullptr || pool->num_threads() == 0 || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    if (ctx) ctx->Add(ExecCounter::kTasksRun, n);
    return;
  }

  auto state = std::make_shared<LoopState>(n);
  // One helper per worker (capped at n-1: the caller claims indices too).
  // Helpers are submitted with TrySubmit: when the pool is saturated — a
  // nested loop inside a pool task, or other queries sharing a session
  // pool — no helper is queued and the caller simply runs more (or all) of
  // the bodies itself. The loop never waits on queue space, so nested
  // parallelism cannot deadlock and a busy shared pool degrades to inline
  // execution instead of piling up no-op helper tasks.
  size_t helpers = std::min(pool->num_threads(), n - 1);
  size_t submitted = 0;
  for (; submitted < helpers; ++submitted) {
    // Helpers copy the body: one may start only after the caller returned
    // (it then claims no index, but must not hold a dangling reference).
    if (!pool->TrySubmit([state, body] { state->Run(body); })) break;
  }
  // Helpers the saturated pool refused are load shed onto this thread; the
  // report surfaces them so overload is visible (pdb_shed_total).
  if (ctx && submitted < helpers) {
    ctx->Add(ExecCounter::kShedTasks, helpers - submitted);
  }
  state->Run(body);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->completed == n; });
  }
  if (ctx) ctx->Add(ExecCounter::kTasksRun, n);
}

}  // namespace pdb
