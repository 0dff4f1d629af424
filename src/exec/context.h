/// \file context.h
/// \brief Per-query execution state: cancellation, deadlines, counters.
///
/// An `ExecContext` is shared by every worker of one query execution. It
/// carries (a) the worker pool, (b) a cooperative stop signal — an explicit
/// `Cancel()` or an armed wall-clock deadline — and (c) atomic progress
/// counters that the engine reads back as an `ExecReport` attached to the
/// query answer. Hot loops (DPLL decisions, sample draws) poll
/// `ShouldStop()` every few dozen iterations; the deadline latch makes the
/// common no-deadline path a single relaxed atomic load.
///
/// Each progress counter is defined once, as a row of `kExecCounters`: its
/// `ExecReport` field, the session ticker it folds into, and its
/// `ExecReport::ToString` label. `ExecContext::Report`, `ToString` and the
/// session's tickers all loop over that table, so adding a counter takes
/// one `ExecCounter` entry, one row and one `ExecReport` field.

#ifndef PDB_EXEC_CONTEXT_H_
#define PDB_EXEC_CONTEXT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace pdb {

class ThreadPool;
class WmcCache;
class IndexCache;
class QueryTrace;
class JoinProfile;

/// Parallelism and time-budget knobs, threaded through `QueryOptions`.
struct ExecOptions {
  /// Worker threads for sampling shards and per-tuple fan-out.
  /// 1 = sequential (no pool), 0 = one per hardware thread.
  int num_threads = 1;
  /// Wall-clock budget in milliseconds; 0 = unlimited. Exact inference that
  /// exceeds the budget degrades to Monte Carlo (see core/pdb.h).
  uint64_t deadline_ms = 0;
};

/// Snapshot of an execution's progress counters and stop state.
struct ExecReport {
  uint64_t tasks_run = 0;       ///< parallel loop bodies executed
  uint64_t samples_drawn = 0;   ///< Monte Carlo samples actually drawn
  uint64_t mc_batches = 0;      ///< Monte Carlo batches completed
  uint64_t cache_hits = 0;      ///< DPLL formula-cache hits (local, NodeId)
  uint64_t dpll_decisions = 0;  ///< DPLL branch decisions
  uint64_t dpll_component_splits = 0;  ///< DPLL connected-component splits
  uint64_t wmc_shared_hits = 0;    ///< session-shared WMC cache hits
  uint64_t wmc_shared_misses = 0;  ///< session-shared WMC cache misses
  /// Filled only by Session::CumulativeReport() from the cache's own
  /// counters (a single query cannot attribute inserts/evictions to
  /// itself once entries are shared).
  uint64_t wmc_shared_inserts = 0;
  uint64_t wmc_shared_evictions = 0;
  size_t wmc_shared_bytes = 0;  ///< resident bytes of the shared cache
  uint64_t lineage_matches = 0;  ///< CQ join matches enumerated
  /// Formula nodes interned for the statement's lineage, by either
  /// grounder (counted once per statement in core/pdb.cc).
  uint64_t lineage_nodes = 0;
  uint64_t index_builds = 0;     ///< indexes built for joins, lifted, plans
  /// Index requests served by a cache: the session's, or the one a lifted
  /// call keeps for itself (storage/index_cache.h).
  uint64_t index_cache_hits = 0;
  /// Parallel helper tasks refused by `ThreadPool::TrySubmit` because the
  /// pool was saturated — the work ran inline on the submitting thread
  /// instead (load shed from the pool, never lost).
  uint64_t shed_tasks = 0;
  /// Requests dropped by a server-side admission queue before any engine
  /// work ran. Always 0 for a plain engine query; Session folds the
  /// server's admission drops into its cumulative report through this
  /// field (see Session::NoteAdmissionRejected).
  uint64_t admission_rejected = 0;
  int num_threads = 1;          ///< pool width (1 = sequential)
  bool cancelled = false;       ///< Cancel() was called
  bool deadline_exceeded = false;  ///< a deadline expired at some point

  /// e.g. "4 threads, 12 tasks, 131072 samples, deadline exceeded": the
  /// nonzero counters, in `kExecCounters` order.
  std::string ToString() const;
};

/// The engine's progress counters, one per row of `kExecCounters`.
enum class ExecCounter : size_t {
  kTasksRun,
  kSamplesDrawn,
  kMcBatches,
  kCacheHits,
  kDpllDecisions,
  kDpllComponentSplits,
  kWmcSharedHits,
  kWmcSharedMisses,
  kLineageMatches,
  kLineageNodes,
  kIndexBuilds,
  kIndexCacheHits,
  kShedTasks,
};
inline constexpr size_t kNumExecCounters = 13;

/// What one `ExecCounter` is outside the context.
struct ExecCounterInfo {
  ExecCounter counter;
  uint64_t ExecReport::*field;  ///< where `ExecContext::Report` puts it
  const char* metric;           ///< the session ticker it folds into
  const char* label;            ///< "<n> <label>" in `ExecReport::ToString`
};

/// One row per `ExecCounter`, in enum order. `pdb_shed_total` also counts
/// server admission drops (Session::NoteAdmissionRejected).
inline constexpr std::array<ExecCounterInfo, kNumExecCounters> kExecCounters =
    {{
        {ExecCounter::kTasksRun, &ExecReport::tasks_run,
         "pdb_exec_tasks_total", "tasks"},
        {ExecCounter::kSamplesDrawn, &ExecReport::samples_drawn,
         "pdb_mc_samples_total", "samples"},
        {ExecCounter::kMcBatches, &ExecReport::mc_batches,
         "pdb_mc_batches_total", "MC batches"},
        {ExecCounter::kCacheHits, &ExecReport::cache_hits,
         "pdb_dpll_cache_hits_total", "cache hits"},
        {ExecCounter::kDpllDecisions, &ExecReport::dpll_decisions,
         "pdb_dpll_decisions_total", "DPLL decisions"},
        {ExecCounter::kDpllComponentSplits, &ExecReport::dpll_component_splits,
         "pdb_dpll_component_splits_total", "component splits"},
        {ExecCounter::kWmcSharedHits, &ExecReport::wmc_shared_hits,
         "pdb_wmc_shared_hits_total", "shared WMC cache hits"},
        {ExecCounter::kWmcSharedMisses, &ExecReport::wmc_shared_misses,
         "pdb_wmc_shared_misses_total", "shared WMC cache misses"},
        {ExecCounter::kLineageMatches, &ExecReport::lineage_matches,
         "pdb_lineage_matches_total", "lineage matches"},
        {ExecCounter::kLineageNodes, &ExecReport::lineage_nodes,
         "pdb_lineage_nodes_total", "lineage nodes"},
        {ExecCounter::kIndexBuilds, &ExecReport::index_builds,
         "pdb_index_builds_total", "index builds"},
        {ExecCounter::kIndexCacheHits, &ExecReport::index_cache_hits,
         "pdb_index_cache_hits_total", "index cache hits"},
        {ExecCounter::kShedTasks, &ExecReport::shed_tasks, "pdb_shed_total",
         "shed tasks"},
    }};

static_assert(
    [] {
      for (size_t i = 0; i < kExecCounters.size(); ++i) {
        if (static_cast<size_t>(kExecCounters[i].counter) != i) return false;
      }
      return true;
    }(),
    "kExecCounters rows must follow ExecCounter order");

/// Shared, thread-safe state of one query execution.
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecContext() = default;
  explicit ExecContext(ThreadPool* pool) : pool_(pool) {}

  /// The worker pool, or null for sequential execution.
  ThreadPool* pool() const { return pool_; }
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Session-owned cross-query WMC cache (wmc/wmc_cache.h), or null. The
  /// context only carries the pointer from the session to the counters; it
  /// never dereferences it.
  WmcCache* wmc_cache() const { return wmc_cache_; }
  void set_wmc_cache(WmcCache* cache) { wmc_cache_ = cache; }

  /// Session-owned index cache (storage/index_cache.h), or null when the
  /// caller has no session (joins and plan scans then build a throwaway
  /// index per request; the lifted engine builds each index once per
  /// call). Carried, not owned, like the WMC cache.
  IndexCache* index_cache() const { return index_cache_; }
  void set_index_cache(IndexCache* cache) { index_cache_ = cache; }

  /// Opt-in per-query trace (obs/trace.h), or null when tracing is off.
  /// Deep modules test this pointer before doing trace-only timing work;
  /// like the pool, the context carries but does not own it.
  QueryTrace* trace() const { return trace_; }
  void set_trace(QueryTrace* trace) { trace_ = trace; }

  /// Opt-in EXPLAIN ANALYZE join instrumentation (exec/join_profile.h), or
  /// null. Carried, not owned, like the trace.
  JoinProfile* join_profile() const { return join_profile_; }
  void set_join_profile(JoinProfile* profile) { join_profile_ = profile; }

  /// Arms the deadline `ms` milliseconds from now. `ms` == 0 disarms, and
  /// so does an `ms` whose expiry the clock's nanosecond count cannot hold.
  void SetDeadline(uint64_t ms);

  /// Disarms the deadline and resets the expiry latch so later work can
  /// proceed (the report still records that a deadline was exceeded).
  void ClearDeadline();

  /// Requests a cooperative stop of all workers.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  /// True once the armed deadline has passed. Latches: after the first
  /// positive observation no further clock reads happen.
  bool DeadlineExceeded();

  /// Cooperative stop check: cancelled or past the deadline.
  bool ShouldStop() { return cancelled() || DeadlineExceeded(); }

  /// Adds `n` to one progress counter (relaxed; workers add in bulk per
  /// shard).
  void Add(ExecCounter counter, uint64_t n) {
    counters_[static_cast<size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }

  ExecReport Report();

 private:
  ThreadPool* pool_ = nullptr;
  WmcCache* wmc_cache_ = nullptr;
  IndexCache* index_cache_ = nullptr;
  QueryTrace* trace_ = nullptr;
  JoinProfile* join_profile_ = nullptr;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> deadline_hit_{false};       // current armed deadline
  std::atomic<bool> deadline_ever_hit_{false};  // sticky, for the report
  std::atomic<int64_t> deadline_ns_{0};  // Clock epoch ns; 0 = disarmed
  std::array<std::atomic<uint64_t>, kNumExecCounters> counters_{};
};

}  // namespace pdb

#endif  // PDB_EXEC_CONTEXT_H_
