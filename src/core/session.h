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
/// Entry points: `Query` (FO or UCQ text), `QuerySqlBoolean`,
/// `QuerySqlAnswers`, `QuerySql` (either kind of SQL statement),
/// `QueryWithAnswers` (a CQ with head variables) and `ExplainSql`. Each
/// call takes one path: a front end (parse or compile), the engine, and
/// one accounting step that counts the call whatever its outcome — one
/// `pdb_queries_total`, one latency sample, one `pdb_query_errors_total`
/// on failure, and its trace, if any, kept in the ring.
///
/// Traces: `Query` and the three `QuerySql*` entry points take an
/// optional caller trace, which takes precedence over
/// `QueryOptions::trace`. The engine records its spans into it and the
/// session keeps it in `recent_traces()` but does not finish it: the caller
/// records its trailing spans and calls `Finish()` itself. That is how the
/// server puts transport spans (http_parse, admission_wait, http_respond)
/// and engine spans on one timeline. Without a caller trace,
/// `QueryOptions::trace` makes the session record a trace of its own,
/// finish it, and attach it to `QueryAnswer::trace`.
///
/// Lifecycle:
///  - construction binds the session to a `ProbDatabase` and resolves the
///    pool width; no threads are spawned until the first parallel query;
///  - each query runs against its own `ExecContext` (private counters, own
///    deadline), so per-query `ExecReport`s are isolated even under heavy
///    concurrency; each report is folded into the session's metrics
///    registry, which `CumulativeReport()` reads back;
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

#include <array>
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
  /// lineages from scratch. Each run probes it only until its miss budget
  /// (`DpllCounter::kSharedMissBudget`) is spent, so a stream of lineages
  /// that never repeat costs a bounded number of probes per query.
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
  /// How many query traces `recent_traces()` retains (oldest evicted
  /// first). Only traced queries (`QueryOptions::trace` or a caller's
  /// trace) enter the ring.
  size_t trace_ring_size = 32;
};

/// What `Session::QuerySql` returns: the answer of a SELECT PROB()
/// statement, or the answer tuples of a column select.
struct SqlAnswer {
  bool boolean = false;
  QueryAnswer answer;  ///< when `boolean`
  Relation tuples;     ///< otherwise, with one `info` entry per row
  std::vector<AnswerTupleInfo> info;
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
  /// `ProbDatabase::Query`). `trace`, when given, records the call (see the
  /// file comment).
  Result<QueryAnswer> Query(const std::string& query_text,
                            const QueryOptions& options = {},
                            std::shared_ptr<QueryTrace> trace = nullptr);

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
  /// `QueryOptions::monte_carlo_target_stderr`. `trace` as in Query.
  Result<QueryAnswer> QuerySqlBoolean(const std::string& sql,
                                      const QueryOptions& options = {},
                                      std::shared_ptr<QueryTrace> trace =
                                          nullptr);

  /// Evaluates a column-select SQL statement: answer tuples with
  /// marginals; `info` as in QueryWithAnswers, `trace` as in Query.
  Result<Relation> QuerySqlAnswers(const std::string& sql,
                                   const QueryOptions& options = {},
                                   std::vector<AnswerTupleInfo>* info =
                                       nullptr,
                                   std::shared_ptr<QueryTrace> trace =
                                       nullptr);

  /// Evaluates either kind of SQL statement, as QuerySqlBoolean or
  /// QuerySqlAnswers would: one parse, inside the statement's compile
  /// span, decides which it is. `trace` as in Query.
  Result<SqlAnswer> QuerySql(const std::string& sql,
                             const QueryOptions& options = {},
                             std::shared_ptr<QueryTrace> trace = nullptr);

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

  /// Top-level calls currently running (the `pdb_requests_in_flight`
  /// gauge).
  int64_t requests_in_flight() const;

  /// Counts one server-side admission drop (a request shed with 429 before
  /// any engine work ran) into the `pdb_admission_rejected_total` and
  /// `pdb_shed_total` tickers, and so into `CumulativeReport()`.
  void NoteAdmissionRejected();

  size_t cache_size() const;
  /// Top-level queries answered by this session, failures and cache hits
  /// included (`pdb_queries_total`).
  uint64_t queries_served() const;
  /// Boolean queries answered from the result cache, per-tuple fan-out
  /// sub-queries included (`pdb_result_cache_hits_total`).
  uint64_t result_cache_hits() const;

  /// The session's cross-query WMC cache, or null when
  /// `SessionOptions::share_wmc_cache` is off.
  WmcCache* wmc_cache() { return wmc_cache_.get(); }
  /// Aggregated counters of the shared WMC cache (zeros when disabled).
  WmcCacheStats wmc_cache_stats() const;

  /// The session's index cache (storage/index_cache.h), shared by every
  /// grounding, lifted computation and plan bound issued through the
  /// session, so repeated queries (and the per-tuple fan-out of
  /// QueryWithAnswers) reuse columnar indexes instead of rebuilding them
  /// per probe. Cleared with the result cache when the database generation
  /// moves.
  IndexCache* index_cache() { return &index_cache_; }
  /// Aggregated counters of the session's index cache.
  IndexCacheStats index_cache_stats() const;

  /// Aggregate of every per-query report (tasks, samples, DPLL cache hits,
  /// shared WMC cache hits, whether any query was cancelled or overran a
  /// deadline), read from the registry's tickers, plus the shared cache's
  /// insert/eviction/size counters.
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

  /// The most recent traces (newest first), at most
  /// `SessionOptions::trace_ring_size` of them. A caller's trace may still
  /// be open when it appears here.
  std::vector<std::shared_ptr<const QueryTrace>> recent_traces() const;

 private:
  friend class LiveContext;

  /// The one accounting step of every top-level call. Resolves the trace
  /// (the caller's, else a fresh one when `options.trace` asks), runs
  /// `body` with it, then counts the call whatever its outcome: one
  /// `pdb_queries_total`, one latency sample (plus one SQL statement
  /// latency sample when `sql`), one `pdb_query_errors_total` on failure
  /// or one per-method ticker on a Boolean answer. The trace enters the
  /// ring, finished only when the session created it.
  template <typename T, typename Body>
  Result<T> TopLevel(const QueryOptions& options,
                     std::shared_ptr<QueryTrace> trace, bool sql, Body body);

  /// Evaluates a Boolean sentence through the result cache and the engine,
  /// recording into `trace`. Behind every Boolean statement and each
  /// per-tuple sub-query of the answer fan-out. `profile` (EXPLAIN
  /// ANALYZE) rides on the execution context like the trace does, and
  /// `bypass_cache` forces execution past the result cache.
  Result<QueryAnswer> QueryFoInternal(const FoPtr& sentence,
                                      const QueryOptions& options,
                                      QueryTrace* trace,
                                      JoinProfile* profile = nullptr,
                                      bool bypass_cache = false);

  /// The answer-tuple pipeline behind QueryWithAnswers and QuerySqlAnswers:
  /// candidate sweep, then one Boolean sub-query per candidate on the
  /// session pool. `report_out`, when non-null, receives the batch
  /// context's counters (EXPLAIN ANALYZE).
  Result<Relation> QueryWithAnswersInternal(
      const ConjunctiveQuery& cq, const std::vector<std::string>& head_vars,
      const QueryOptions& options, std::vector<AnswerTupleInfo>* info,
      QueryTrace* trace, JoinProfile* profile = nullptr,
      ExecReport* report_out = nullptr);

  /// Cache key: the options that can change an exact answer, then the
  /// sentence text.
  static std::string CacheKey(const FoPtr& sentence,
                              const QueryOptions& options);

  /// Folds one execution's report into the tickers. Caller must hold `mu_`,
  /// so that `CumulativeReport()` reads whole folds.
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
  /// lookups). The registry is the one copy of the session's totals:
  /// `CumulativeReport()` and the accessors read it. The wmc_shared_*
  /// overlay counters and the level gauges are refreshed from their
  /// sources of truth by `SnapshotMetrics()`.
  struct Tickers {
    /// One per `kExecCounters` row (exec/context.h), in table order.
    std::array<Counter*, kNumExecCounters> exec;
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
    Counter* wmc_shared_inserts;    // overlay: Set() from WmcCacheStats
    Counter* wmc_shared_evictions;  // overlay: Set() from WmcCacheStats
    Counter* admission_rejected;
    Gauge* sessions_active;      ///< 1 while this session lives
    Gauge* requests_in_flight;   ///< top-level calls currently running
    Gauge* wmc_shared_bytes;
    Gauge* wmc_shared_entries;
    Gauge* result_cache_entries;
    Gauge* index_cache_entries;
    Histogram* query_latency_us;
    Histogram* sql_statement_latency_us;
  };

  const ProbDatabase* db_;
  SessionOptions options_;
  int resolved_threads_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
  /// Internally sharded and thread-safe; not guarded by mu_. Shared when
  /// `SessionOptions::external_wmc_cache` was supplied, private otherwise.
  std::shared_ptr<WmcCache> wmc_cache_;
  /// Internally sharded and thread-safe; not guarded by mu_.
  IndexCache index_cache_;
  /// Thread-safe (atomics inside; its own mutex for creation).
  MetricsRegistry metrics_;
  Tickers tickers_;

  mutable std::mutex mu_;
  uint64_t generation_seen_;                          // guarded by mu_
  std::unordered_map<std::string, ResultEntry> cache_;  // guarded by mu_
  /// Recency order of cache_ keys, most recent first.   Guarded by mu_.
  std::list<std::string> lru_;
  /// Ring buffer of recent traces, newest at the front.
  std::deque<std::shared_ptr<const QueryTrace>> traces_;  // guarded by mu_
  /// Execution contexts of in-flight queries (top-level and fan-out
  /// children), registered for CancelInFlight(). Guarded by mu_; each
  /// context outlives its registration (stack-held by the query until it
  /// unregisters).
  std::unordered_set<ExecContext*> live_contexts_;  // guarded by mu_
};

}  // namespace pdb

#endif  // PDB_CORE_SESSION_H_
