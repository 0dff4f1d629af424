/// \file session.h
/// \brief Long-lived query session: shared worker pool, cross-query result
/// cache, per-session accounting.
///
/// A `Session` is the unit of concurrency for serving queries: it owns one
/// `ThreadPool` (created lazily, shared by every query issued through the
/// session) and a result cache keyed by query sentence, so N concurrent
/// `Query()` calls share workers instead of each spinning up a pool and
/// oversubscribing the machine. All entry points are thread-safe: issue
/// queries from as many threads as you like against one session.
///
/// Lifecycle:
///  - construction binds the session to a `ProbDatabase` and resolves the
///    pool width; no threads are spawned until the first parallel query;
///  - each query runs against its own `ExecContext` (private counters, own
///    deadline), so per-query `ExecReport`s are isolated even under heavy
///    concurrency, while `CumulativeReport()` aggregates across them;
///  - exact answers are cached by (sentence, relevant options); the cache
///    is invalidated when the database's mutation generation changes
///    (`ProbDatabase::AddRelation` bumps it; direct mutation through
///    `database()` requires `BumpGeneration()` or `InvalidateCache()`);
///  - destruction drains and joins the pool. The session must outlive any
///    in-flight queries issued through it.
///
/// The `ProbDatabase::Query*` methods remain as thin wrappers creating a
/// private single-shot session per call, which reproduces the historical
/// pool-per-query behaviour exactly.

#ifndef PDB_CORE_SESSION_H_
#define PDB_CORE_SESSION_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/pdb.h"
#include "exec/context.h"
#include "exec/join_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/explain.h"
#include "storage/index_cache.h"
#include "wmc/wmc_cache.h"

namespace pdb {

class ThreadPool;

/// Tuning for a session.
struct SessionOptions {
  /// Worker-pool width shared by every query issued through the session:
  /// 1 = sequential (no pool), 0 = one worker per hardware thread. A
  /// query's own `exec.num_threads == 1` still forces that query to run
  /// sequentially; any other value uses the session pool at this width.
  int num_threads = 0;
  /// Cache exact answers across queries (keyed by sentence + the options
  /// that can change the answer).
  bool cache_results = true;
  /// Capacity of the result cache; least-recently-used entries are evicted
  /// once it is reached, so hot queries stay cached for the session's
  /// lifetime no matter how many one-off queries pass through.
  size_t max_cache_entries = 4096;
  /// Share one cross-query WMC subformula cache (wmc/wmc_cache.h) across
  /// every DPLL run issued through the session — including the per-tuple
  /// fan-out of QueryWithAnswers, which otherwise re-solves near-identical
  /// lineages from scratch.
  bool share_wmc_cache = true;
  /// Byte budget of the shared WMC cache (per-shard CLOCK eviction).
  size_t wmc_cache_bytes = size_t{64} << 20;
  /// Shard (mutex stripe) count of the shared WMC cache.
  size_t wmc_cache_shards = 16;
  /// Use this externally owned WMC cache instead of constructing a private
  /// one (ignored unless `share_wmc_cache` is set). This is how pdbd gives
  /// every pooled per-client session one process-wide cache — which is
  /// also the cache the durable layer spills to and reloads from disk on a
  /// warm restart. Safe to share across sessions and databases: cache keys
  /// are pure functions of (formula structure, weights), so an entry can
  /// never serve a mismatched lookup (see wmc/wmc_cache.h).
  std::shared_ptr<WmcCache> external_wmc_cache = nullptr;
  /// How many finished query traces `recent_traces()` retains (oldest
  /// evicted first). Only queries run with `QueryOptions::trace` enter the
  /// ring.
  size_t trace_ring_size = 32;
  /// Share one join-index cache (storage/index_cache.h) across every CQ
  /// grounding issued through the session, so repeated queries (and the
  /// per-tuple fan-out of QueryWithAnswers) reuse columnar relation images
  /// and columnar code indexes instead of rebuilding them per grounding.
  /// Invalidated with the result cache when the database generation moves
  /// (which also detaches stale columnar entries — the relations
  /// themselves re-encode lazily).
  bool cache_indexes = true;
  /// Shard (mutex stripe) count of the shared index cache.
  size_t index_cache_shards = 8;
};

/// A long-lived, thread-safe query session over one `ProbDatabase`.
class Session {
 public:
  /// Binds to `db`, which must outlive the session.
  explicit Session(const ProbDatabase* db, SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and evaluates a Boolean query (same syntax as
  /// `ProbDatabase::Query`).
  Result<QueryAnswer> Query(const std::string& query_text,
                            const QueryOptions& options = {});

  /// Evaluates a Boolean FO sentence.
  Result<QueryAnswer> QueryFo(const FoPtr& sentence,
                              const QueryOptions& options = {});

  /// Non-Boolean conjunctive query: answer tuples with marginal
  /// probabilities; the per-tuple fan-out runs on the session pool and the
  /// per-tuple Boolean sub-queries can hit the session result cache. When
  /// `info` is non-null it receives one `AnswerTupleInfo` per output row.
  Result<Relation> QueryWithAnswers(const ConjunctiveQuery& cq,
                                    const std::vector<std::string>& head_vars,
                                    const QueryOptions& options = {},
                                    std::vector<AnswerTupleInfo>* info =
                                        nullptr);

  /// Evaluates "SELECT PROB() FROM ... WHERE ... [WITH STDERR s]"
  /// (sql/sql.h). A WITH STDERR clause sets the adaptive Monte Carlo
  /// target standard error for this statement, overriding
  /// `QueryOptions::monte_carlo_target_stderr`.
  Result<QueryAnswer> QuerySqlBoolean(const std::string& sql,
                                      const QueryOptions& options = {});

  /// Evaluates a column-select SQL statement: answer tuples with
  /// marginals; `info` as in QueryWithAnswers.
  Result<Relation> QuerySqlAnswers(const std::string& sql,
                                   const QueryOptions& options = {},
                                   std::vector<AnswerTupleInfo>* info =
                                       nullptr);

  /// As Query / QuerySqlBoolean / QuerySqlAnswers, but recording into a
  /// caller-provided trace: the server threads one trace per HTTP request
  /// through these so transport spans (http_parse, admission_wait,
  /// http_respond) and engine spans land on one timeline. The trace is
  /// retained in the ring but NOT finished — the caller records its
  /// trailing spans and calls `trace->Finish()` itself. A null trace makes
  /// these identical to the untraced entry points.
  Result<QueryAnswer> QueryTraced(const std::string& query_text,
                                  const QueryOptions& options,
                                  std::shared_ptr<QueryTrace> trace);
  Result<QueryAnswer> QuerySqlBooleanTraced(const std::string& sql,
                                            const QueryOptions& options,
                                            std::shared_ptr<QueryTrace> trace);
  Result<Relation> QuerySqlAnswersTraced(const std::string& sql,
                                         const QueryOptions& options,
                                         std::vector<AnswerTupleInfo>* info,
                                         std::shared_ptr<QueryTrace> trace);

  /// EXPLAIN [ANALYZE] <sql>: compiles the statement, runs the safety
  /// check (the lifted compiler either produces a polynomial extensional
  /// plan or rejects the query as unsafe), and reports the cost-based join
  /// plan with its per-step selectivity estimates. With `analyze` the
  /// statement actually executes — bypassing the result cache, since the
  /// point is to observe execution — and the result carries the actual
  /// per-step match counts beside the estimates, the answer, the
  /// `ExecReport` counters, and the full per-phase trace. `sql` must not
  /// carry the EXPLAIN prefix itself (see `StripExplainPrefix`,
  /// sql/sql.h).
  Result<ExplainResult> ExplainSql(const std::string& sql, bool analyze,
                                   const QueryOptions& options = {});

  /// Resolved pool width (>= 1).
  int num_threads() const { return resolved_threads_; }

  /// The shared pool, constructed on first use; null when the session is
  /// sequential (`num_threads() == 1`).
  ThreadPool* pool();

  /// Drops every cached result and every shared WMC cache entry (e.g.
  /// after mutating the database through `ProbDatabase::database()`).
  void InvalidateCache();

  /// Requests a cooperative stop of every query currently executing through
  /// this session (top-level and per-tuple fan-out alike). In-flight
  /// queries observe the cancel at their next `ShouldStop()` poll and
  /// return with `report.cancelled`; queries issued after this call run
  /// normally. This is the server's straggler hammer for graceful
  /// shutdown: drain first, cancel whatever is left.
  void CancelInFlight();

  /// Top-level queries currently executing (the `pdb_requests_in_flight`
  /// gauge).
  int64_t requests_in_flight() const;

  /// Counts one server-side admission drop (a request shed with 429 before
  /// any engine work ran) into this session's cumulative report and the
  /// `pdb_admission_rejected_total` / `pdb_shed_total` tickers, under the
  /// same lock as every other fold so ticker == CumulativeReport holds.
  void NoteAdmissionRejected();

  size_t cache_size() const;
  /// Top-level queries answered by this session (cache hits included).
  uint64_t queries_served() const;
  /// Top-level queries answered from the result cache.
  uint64_t result_cache_hits() const;

  /// The session's cross-query WMC cache, or null when
  /// `SessionOptions::share_wmc_cache` is off.
  WmcCache* wmc_cache() { return wmc_cache_.get(); }
  /// Aggregated counters of the shared WMC cache (zeros when disabled).
  WmcCacheStats wmc_cache_stats() const;

  /// The session's shared join-index cache, or null when
  /// `SessionOptions::cache_indexes` is off.
  IndexCache* index_cache() { return index_cache_.get(); }
  /// Aggregated counters of the shared index cache (zeros when disabled).
  IndexCacheStats index_cache_stats() const;

  /// Aggregate of every per-query report (tasks, samples, DPLL cache hits,
  /// shared WMC cache hits, whether any query was cancelled or overran a
  /// deadline), plus the shared cache's insert/eviction/size counters.
  ExecReport CumulativeReport() const;

  /// The session's metrics registry. Engine tickers (pdb_queries_total,
  /// pdb_dpll_decisions_total, pdb_query_latency_us, ...) live here;
  /// callers may mint additional metrics through the same registry.
  MetricsRegistry& metrics() { return metrics_; }

  /// Point-in-time copy of every metric, with the shared-cache and
  /// result-cache level gauges refreshed first.
  MetricsSnapshot SnapshotMetrics() const;
  /// Prometheus text exposition of `SnapshotMetrics()`.
  std::string MetricsText() const;
  /// JSON rendering of `SnapshotMetrics()`.
  std::string MetricsJson() const;

  /// The most recent finished traces (newest first), at most
  /// `SessionOptions::trace_ring_size` of them.
  std::vector<std::shared_ptr<const QueryTrace>> recent_traces() const;

 private:
  /// Shared pipeline behind Query/QueryFo and the per-tuple fan-out.
  /// `top_level` controls accounting: fan-out sub-queries aggregate into
  /// the cumulative report but do not count as served queries (and do not
  /// finish or retain `trace` — they only add spans to it).
  /// `finish_trace` is false for the *Traced entry points, whose caller
  /// finishes the trace after its own trailing spans. `profile` (EXPLAIN
  /// ANALYZE) rides on the execution context like the trace does, and
  /// `bypass_cache` forces execution past the result cache.
  Result<QueryAnswer> QueryFoInternal(const FoPtr& sentence,
                                      const QueryOptions& options,
                                      bool top_level,
                                      std::shared_ptr<QueryTrace> trace,
                                      bool finish_trace = true,
                                      JoinProfile* profile = nullptr,
                                      bool bypass_cache = false);

  /// Query against a caller-provided trace (parse span + QueryFoInternal).
  Result<QueryAnswer> QueryInternal(const std::string& query_text,
                                    const QueryOptions& options,
                                    std::shared_ptr<QueryTrace> trace,
                                    bool finish_trace);

  /// QuerySql* against a caller-provided trace (compile span + dispatch).
  Result<QueryAnswer> QuerySqlBooleanInternal(const std::string& sql,
                                              const QueryOptions& options,
                                              std::shared_ptr<QueryTrace> trace,
                                              bool finish_trace);
  Result<Relation> QuerySqlAnswersInternal(const std::string& sql,
                                           const QueryOptions& options,
                                           std::vector<AnswerTupleInfo>* info,
                                           std::shared_ptr<QueryTrace> trace,
                                           bool finish_trace);

  /// QueryWithAnswers against a caller-provided trace (the SQL wrapper
  /// passes the trace holding its compile span). `report_out`, when
  /// non-null, receives the batch context's counters (EXPLAIN ANALYZE).
  Result<Relation> QueryWithAnswersTraced(
      const ConjunctiveQuery& cq, const std::vector<std::string>& head_vars,
      const QueryOptions& options, std::vector<AnswerTupleInfo>* info,
      std::shared_ptr<QueryTrace> trace, bool finish_trace = true,
      JoinProfile* profile = nullptr, ExecReport* report_out = nullptr);

  /// A fresh trace when `options.trace` asks for one, else null.
  std::shared_ptr<QueryTrace> MakeTrace(const QueryOptions& options) const {
    return options.trace ? std::make_shared<QueryTrace>() : nullptr;
  }

  /// Pushes `trace` into the ring buffer, finishing it first unless the
  /// caller keeps recording (the *Traced entry points add transport spans
  /// after the engine returns). No-op on null.
  void RetainTrace(const std::shared_ptr<QueryTrace>& trace,
                   bool finish = true);

  /// Cache key: the options that can change an exact answer, then the
  /// sentence text.
  static std::string CacheKey(const FoPtr& sentence,
                              const QueryOptions& options);

  /// Folds one per-query report into the cumulative aggregate. Caller must
  /// hold `mu_`.
  void AggregateLocked(const ExecReport& report);

  /// Drops stale caches if the database generation moved past the snapshot
  /// this session last saw. Caller must hold `mu_`.
  void RefreshGenerationLocked(uint64_t current_generation);

  /// One result-cache entry plus its position in the LRU recency list.
  struct ResultEntry {
    QueryAnswer answer;
    std::list<std::string>::iterator lru_pos;
  };

  /// Looks up `key`, refreshing recency. Caller must hold `mu_`.
  const QueryAnswer* CacheLookupLocked(const std::string& key);
  /// Inserts under `key`, evicting the least-recently-used entry when at
  /// capacity. Caller must hold `mu_`.
  void CacheInsertLocked(std::string key, QueryAnswer answer);

  /// Registry tickers resolved once at construction (stable pointers, so
  /// the per-query fold is a handful of relaxed atomic adds, no map
  /// lookups). Counters mirror `cumulative_` field for field; the
  /// wmc_shared_* overlay counters and the level gauges are refreshed from
  /// their sources of truth by `SnapshotMetrics()`.
  struct Tickers {
    Counter* queries;
    Counter* query_errors;
    Counter* result_cache_hits;
    Counter* result_cache_misses;
    Counter* result_cache_evictions;
    Counter* queries_lifted;
    Counter* queries_grounded_exact;
    Counter* queries_monte_carlo;
    Counter* queries_plan_bounds;
    Counter* deadline_exceeded;
    Counter* queries_cancelled;
    Counter* exec_tasks;
    Counter* mc_samples;
    Counter* mc_batches;
    Counter* dpll_decisions;
    Counter* dpll_cache_hits;
    Counter* dpll_component_splits;
    Counter* wmc_shared_hits;
    Counter* wmc_shared_misses;
    Counter* wmc_shared_inserts;    // overlay: Set() from WmcCacheStats
    Counter* wmc_shared_evictions;  // overlay: Set() from WmcCacheStats
    Counter* lineage_matches;
    Counter* lineage_nodes;
    Counter* index_builds;
    Counter* index_cache_hits;
    /// All load shed: inline-degraded pool tasks + admission drops
    /// (invariant: == cumulative shed_tasks + admission_rejected).
    Counter* shed;
    Counter* admission_rejected;
    Gauge* sessions_active;      ///< 1 while this session lives
    Gauge* requests_in_flight;   ///< top-level queries currently executing
    Gauge* wmc_shared_bytes;
    Gauge* wmc_shared_entries;
    Gauge* result_cache_entries;
    Gauge* index_cache_entries;
    Histogram* query_latency_us;
    Histogram* sql_statement_latency_us;
  };

  /// Counts one answered top-level query into the tickers. Caller must
  /// hold `mu_` (only for consistency with the queries_served_ bump next
  /// to it; the tickers themselves are atomic).
  void TickTopLevelLocked(const Result<QueryAnswer>& answer,
                          uint64_t latency_us);

  const ProbDatabase* db_;
  SessionOptions options_;
  int resolved_threads_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
  /// Internally sharded and thread-safe; not guarded by mu_. Shared when
  /// `SessionOptions::external_wmc_cache` was supplied, private otherwise.
  std::shared_ptr<WmcCache> wmc_cache_;
  /// Internally sharded and thread-safe; not guarded by mu_.
  std::unique_ptr<IndexCache> index_cache_;
  /// Thread-safe (atomics inside; its own mutex for creation).
  MetricsRegistry metrics_;
  Tickers tickers_;

  mutable std::mutex mu_;
  uint64_t generation_seen_;                          // guarded by mu_
  std::unordered_map<std::string, ResultEntry> cache_;  // guarded by mu_
  /// Recency order of cache_ keys, most recent first.   Guarded by mu_.
  std::list<std::string> lru_;
  uint64_t queries_served_ = 0;                       // guarded by mu_
  uint64_t result_cache_hits_ = 0;                    // guarded by mu_
  ExecReport cumulative_;                             // guarded by mu_
  /// Ring buffer of recent finished traces, newest at the front.
  std::deque<std::shared_ptr<const QueryTrace>> traces_;  // guarded by mu_
  /// Execution contexts of in-flight queries (top-level and fan-out
  /// children), registered for CancelInFlight(). Guarded by mu_; each
  /// context outlives its registration (stack-held by the query until it
  /// unregisters).
  std::unordered_set<ExecContext*> live_contexts_;  // guarded by mu_
  int64_t top_level_in_flight_ = 0;                 // guarded by mu_

  friend class InFlightGuard;
};

}  // namespace pdb

#endif  // PDB_CORE_SESSION_H_
