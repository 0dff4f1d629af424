#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "boolean/lineage.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "sql/sql.h"
#include "util/check.h"
#include "util/string_util.h"

namespace pdb {

namespace {

/// Resolves SessionOptions::num_threads (0 = one per hardware thread).
int ResolveThreads(int num_threads) {
  if (num_threads <= 0) {
    return static_cast<int>(ThreadPool::HardwareThreads());
  }
  return num_threads;
}

/// Microseconds elapsed since `start` (for the latency histograms).
uint64_t MicrosSince(ExecContext::Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          ExecContext::Clock::now() - start)
          .count());
}

}  // namespace

/// RAII registration of one in-flight ExecContext: visible to
/// Session::CancelInFlight() between construction and destruction, and
/// counted in the pdb_requests_in_flight gauge when top-level.
class InFlightGuard {
 public:
  InFlightGuard(Session* session, ExecContext* ctx, bool top_level)
      : session_(session), ctx_(ctx), top_level_(top_level) {
    std::lock_guard<std::mutex> lock(session_->mu_);
    session_->live_contexts_.insert(ctx_);
    if (top_level_) {
      ++session_->top_level_in_flight_;
      session_->tickers_.requests_in_flight->Add(1);
    }
  }
  ~InFlightGuard() {
    std::lock_guard<std::mutex> lock(session_->mu_);
    session_->live_contexts_.erase(ctx_);
    if (top_level_) {
      --session_->top_level_in_flight_;
      session_->tickers_.requests_in_flight->Add(-1);
    }
  }

  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  Session* session_;
  ExecContext* ctx_;
  bool top_level_;
};

Session::Session(const ProbDatabase* db, SessionOptions options)
    : db_(db),
      options_(options),
      resolved_threads_(ResolveThreads(options.num_threads)),
      generation_seen_(db->generation()) {
  cumulative_.num_threads = resolved_threads_;
  if (options_.share_wmc_cache) {
    if (options_.external_wmc_cache) {
      wmc_cache_ = options_.external_wmc_cache;
    } else {
      WmcCacheOptions cache_options;
      cache_options.num_shards = options_.wmc_cache_shards;
      cache_options.max_bytes = options_.wmc_cache_bytes;
      wmc_cache_ = std::make_shared<WmcCache>(cache_options);
    }
  }
  if (options_.cache_indexes) {
    IndexCacheOptions index_options;
    index_options.num_shards = options_.index_cache_shards;
    index_cache_ = std::make_unique<IndexCache>(index_options);
  }
  // Resolve every engine ticker once; updates are then lock-free.
  tickers_.queries = metrics_.GetCounter("pdb_queries_total");
  tickers_.query_errors = metrics_.GetCounter("pdb_query_errors_total");
  tickers_.result_cache_hits =
      metrics_.GetCounter("pdb_result_cache_hits_total");
  tickers_.result_cache_misses =
      metrics_.GetCounter("pdb_result_cache_misses_total");
  tickers_.result_cache_evictions =
      metrics_.GetCounter("pdb_result_cache_evictions_total");
  tickers_.queries_lifted = metrics_.GetCounter("pdb_queries_lifted_total");
  tickers_.queries_grounded_exact =
      metrics_.GetCounter("pdb_queries_grounded_exact_total");
  tickers_.queries_monte_carlo =
      metrics_.GetCounter("pdb_queries_monte_carlo_total");
  tickers_.queries_plan_bounds =
      metrics_.GetCounter("pdb_queries_plan_bounds_total");
  tickers_.deadline_exceeded =
      metrics_.GetCounter("pdb_deadline_exceeded_total");
  tickers_.queries_cancelled =
      metrics_.GetCounter("pdb_queries_cancelled_total");
  tickers_.exec_tasks = metrics_.GetCounter("pdb_exec_tasks_total");
  tickers_.mc_samples = metrics_.GetCounter("pdb_mc_samples_total");
  tickers_.mc_batches = metrics_.GetCounter("pdb_mc_batches_total");
  tickers_.dpll_decisions = metrics_.GetCounter("pdb_dpll_decisions_total");
  tickers_.dpll_cache_hits = metrics_.GetCounter("pdb_dpll_cache_hits_total");
  tickers_.dpll_component_splits =
      metrics_.GetCounter("pdb_dpll_component_splits_total");
  tickers_.wmc_shared_hits = metrics_.GetCounter("pdb_wmc_shared_hits_total");
  tickers_.wmc_shared_misses =
      metrics_.GetCounter("pdb_wmc_shared_misses_total");
  tickers_.wmc_shared_inserts =
      metrics_.GetCounter("pdb_wmc_shared_inserts_total");
  tickers_.wmc_shared_evictions =
      metrics_.GetCounter("pdb_wmc_shared_evictions_total");
  tickers_.lineage_matches = metrics_.GetCounter("pdb_lineage_matches_total");
  tickers_.lineage_nodes = metrics_.GetCounter("pdb_lineage_nodes_total");
  tickers_.index_builds = metrics_.GetCounter("pdb_index_builds_total");
  tickers_.index_cache_hits =
      metrics_.GetCounter("pdb_index_cache_hits_total");
  tickers_.shed = metrics_.GetCounter("pdb_shed_total");
  tickers_.admission_rejected =
      metrics_.GetCounter("pdb_admission_rejected_total");
  tickers_.sessions_active = metrics_.GetGauge("pdb_sessions_active");
  tickers_.sessions_active->Set(1);  // summed across a server's session pool
  tickers_.requests_in_flight = metrics_.GetGauge("pdb_requests_in_flight");
  tickers_.wmc_shared_bytes = metrics_.GetGauge("pdb_wmc_shared_bytes");
  tickers_.wmc_shared_entries = metrics_.GetGauge("pdb_wmc_shared_entries");
  tickers_.result_cache_entries =
      metrics_.GetGauge("pdb_result_cache_entries");
  tickers_.index_cache_entries =
      metrics_.GetGauge("pdb_index_cache_entries");
  tickers_.query_latency_us = metrics_.GetHistogram("pdb_query_latency_us");
  tickers_.sql_statement_latency_us =
      metrics_.GetHistogram("pdb_sql_statement_latency_us");
}

Session::~Session() = default;  // pool destructor drains + joins

ThreadPool* Session::pool() {
  if (resolved_threads_ <= 1) return nullptr;
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(resolved_threads_));
  });
  return pool_.get();
}

void Session::CancelInFlight() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ExecContext* ctx : live_contexts_) ctx->Cancel();
}

int64_t Session::requests_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return top_level_in_flight_;
}

void Session::NoteAdmissionRejected() {
  std::lock_guard<std::mutex> lock(mu_);
  cumulative_.admission_rejected += 1;
  tickers_.admission_rejected->Add(1);
  tickers_.shed->Add(1);
}

void Session::InvalidateCache() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    lru_.clear();
  }
  // An externally owned WMC cache is left alone: its entries stay
  // value-correct (self-validating keys), other sessions share it, and it
  // may hold warm-restart entries reloaded from the component store.
  if (wmc_cache_ && !options_.external_wmc_cache) wmc_cache_->Clear();
  if (index_cache_) index_cache_->Clear();
}

void Session::RefreshGenerationLocked(uint64_t current_generation) {
  if (current_generation == generation_seen_) return;
  // The database mutated since this session last looked: drop the result
  // cache (its answers may be stale) and the shared WMC cache (its entries
  // stay value-correct thanks to the weight fingerprints, but they key
  // lineages of the previous database and would only waste the budget).
  cache_.clear();
  lru_.clear();
  // A private WMC cache only keys lineages of the previous database state,
  // so its entries would just waste the budget. A shared external cache is
  // kept: other sessions (and warm-restart entries reloaded from disk) use
  // it, and the fingerprinted keys make stale entries harmless.
  if (wmc_cache_ && !options_.external_wmc_cache) wmc_cache_->Clear();
  // Index entries reference rows of the previous database state.
  if (index_cache_) index_cache_->Clear();
  generation_seen_ = current_generation;
}

const QueryAnswer* Session::CacheLookupLocked(const std::string& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  // Refresh recency: splice the key to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second.answer;
}

void Session::CacheInsertLocked(std::string key, QueryAnswer answer) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent query answered the same key first; keep the existing
    // entry (the answers are identical) and just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  while (cache_.size() >= options_.max_cache_entries && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    tickers_.result_cache_evictions->Add(1);
  }
  if (options_.max_cache_entries == 0) return;
  lru_.push_front(key);
  cache_.emplace(std::move(key),
                 ResultEntry{std::move(answer), lru_.begin()});
}

size_t Session::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

uint64_t Session::queries_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_served_;
}

uint64_t Session::result_cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return result_cache_hits_;
}

WmcCacheStats Session::wmc_cache_stats() const {
  return wmc_cache_ ? wmc_cache_->stats() : WmcCacheStats{};
}

IndexCacheStats Session::index_cache_stats() const {
  return index_cache_ ? index_cache_->stats() : IndexCacheStats{};
}

ExecReport Session::CumulativeReport() const {
  ExecReport report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report = cumulative_;
  }
  if (wmc_cache_) {
    WmcCacheStats stats = wmc_cache_->stats();
    report.wmc_shared_inserts = stats.inserts;
    report.wmc_shared_evictions = stats.evictions;
    report.wmc_shared_bytes = stats.bytes;
  }
  return report;
}

MetricsSnapshot Session::SnapshotMetrics() const {
  // Refresh the overlay metrics from their sources of truth before
  // copying: the shared WMC cache keeps its own insert/eviction/size
  // counters (a single query cannot attribute them), and the result-cache
  // level lives behind mu_.
  if (wmc_cache_) {
    WmcCacheStats stats = wmc_cache_->stats();
    tickers_.wmc_shared_inserts->Set(stats.inserts);
    tickers_.wmc_shared_evictions->Set(stats.evictions);
    tickers_.wmc_shared_bytes->Set(static_cast<int64_t>(stats.bytes));
    tickers_.wmc_shared_entries->Set(static_cast<int64_t>(stats.entries));
  }
  if (index_cache_) {
    tickers_.index_cache_entries->Set(
        static_cast<int64_t>(index_cache_->stats().entries));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickers_.result_cache_entries->Set(
        static_cast<int64_t>(cache_.size()));
  }
  return metrics_.Snapshot();
}

std::string Session::MetricsText() const {
  return SnapshotMetrics().RenderPrometheus();
}

std::string Session::MetricsJson() const {
  return SnapshotMetrics().RenderJson();
}

std::vector<std::shared_ptr<const QueryTrace>> Session::recent_traces()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {traces_.begin(), traces_.end()};
}

void Session::RetainTrace(const std::shared_ptr<QueryTrace>& trace,
                          bool finish) {
  if (!trace) return;
  if (finish) trace->Finish();
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_front(trace);
  while (traces_.size() > options_.trace_ring_size) traces_.pop_back();
}

void Session::AggregateLocked(const ExecReport& report) {
  cumulative_.tasks_run += report.tasks_run;
  cumulative_.samples_drawn += report.samples_drawn;
  cumulative_.mc_batches += report.mc_batches;
  cumulative_.cache_hits += report.cache_hits;
  cumulative_.dpll_decisions += report.dpll_decisions;
  cumulative_.dpll_component_splits += report.dpll_component_splits;
  cumulative_.wmc_shared_hits += report.wmc_shared_hits;
  cumulative_.wmc_shared_misses += report.wmc_shared_misses;
  cumulative_.lineage_matches += report.lineage_matches;
  cumulative_.lineage_nodes += report.lineage_nodes;
  cumulative_.index_builds += report.index_builds;
  cumulative_.index_cache_hits += report.index_cache_hits;
  cumulative_.shed_tasks += report.shed_tasks;
  cumulative_.admission_rejected += report.admission_rejected;
  cumulative_.cancelled = cumulative_.cancelled || report.cancelled;
  cumulative_.deadline_exceeded =
      cumulative_.deadline_exceeded || report.deadline_exceeded;
  // Mirror into the registry right here, under the same lock and from the
  // same report, so the tickers and CumulativeReport() agree by
  // construction no matter how queries interleave.
  tickers_.exec_tasks->Add(report.tasks_run);
  tickers_.mc_samples->Add(report.samples_drawn);
  tickers_.mc_batches->Add(report.mc_batches);
  tickers_.dpll_cache_hits->Add(report.cache_hits);
  tickers_.dpll_decisions->Add(report.dpll_decisions);
  tickers_.dpll_component_splits->Add(report.dpll_component_splits);
  tickers_.wmc_shared_hits->Add(report.wmc_shared_hits);
  tickers_.wmc_shared_misses->Add(report.wmc_shared_misses);
  tickers_.lineage_matches->Add(report.lineage_matches);
  tickers_.lineage_nodes->Add(report.lineage_nodes);
  tickers_.index_builds->Add(report.index_builds);
  tickers_.index_cache_hits->Add(report.index_cache_hits);
  // pdb_shed_total covers every form of load shedding: pool tasks degraded
  // to inline execution plus admission-queue drops (the latter are 0 in
  // engine reports and arrive via NoteAdmissionRejected).
  tickers_.shed->Add(report.shed_tasks + report.admission_rejected);
  tickers_.admission_rejected->Add(report.admission_rejected);
  if (report.deadline_exceeded) tickers_.deadline_exceeded->Add(1);
  if (report.cancelled) tickers_.queries_cancelled->Add(1);
}

void Session::TickTopLevelLocked(const Result<QueryAnswer>& answer,
                                 uint64_t latency_us) {
  tickers_.queries->Add(1);
  tickers_.query_latency_us->Record(latency_us);
  if (!answer.ok()) {
    tickers_.query_errors->Add(1);
    return;
  }
  switch (answer->method) {
    case InferenceMethod::kLifted:
      tickers_.queries_lifted->Add(1);
      break;
    case InferenceMethod::kGroundedExact:
      tickers_.queries_grounded_exact->Add(1);
      break;
    case InferenceMethod::kMonteCarlo:
      tickers_.queries_monte_carlo->Add(1);
      break;
    case InferenceMethod::kPlanBounds:
      tickers_.queries_plan_bounds->Add(1);
      break;
  }
}

std::string Session::CacheKey(const FoPtr& sentence,
                              const QueryOptions& options) {
  // Only exact answers are cached, so the key covers every option that can
  // shape an exact answer's value *or* metadata (method/explanation/bounds):
  // the lifted preference, the DPLL decision budget, the Monte Carlo
  // fallback toggle, and the lifted-engine knobs that decide whether lifted
  // inference succeeds (and hence which engine is reported). Thread counts,
  // deadlines, and sampling parameters cannot change an exact answer. One
  // caveat: LiftedOptions::trace is a side channel — a cache hit skips the
  // derivation log the first execution would have appended.
  return StrFormat("%d|%llu|%d|%d|%llu|%llu|", options.prefer_lifted ? 1 : 0,
                   static_cast<unsigned long long>(
                       options.max_dpll_decisions),
                   options.allow_monte_carlo ? 1 : 0,
                   options.lifted.use_inclusion_exclusion ? 1 : 0,
                   static_cast<unsigned long long>(
                       options.lifted.max_ie_subsets),
                   static_cast<unsigned long long>(
                       options.lifted.max_depth)) +
         sentence->ToString();
}

Result<QueryAnswer> Session::Query(const std::string& query_text,
                                   const QueryOptions& options) {
  return QueryInternal(query_text, options, MakeTrace(options),
                       /*finish_trace=*/true);
}

Result<QueryAnswer> Session::QueryTraced(const std::string& query_text,
                                         const QueryOptions& options,
                                         std::shared_ptr<QueryTrace> trace) {
  return QueryInternal(query_text, options, std::move(trace),
                       /*finish_trace=*/false);
}

Result<QueryAnswer> Session::QueryInternal(const std::string& query_text,
                                           const QueryOptions& options,
                                           std::shared_ptr<QueryTrace> trace,
                                           bool finish_trace) {
  const ExecContext::Clock::time_point started = ExecContext::Clock::now();
  FoPtr sentence;
  {
    TraceSpan parse_span(trace.get(), TracePhase::kParse);
    auto parsed = ParseBooleanQuery(query_text);
    if (!parsed.ok()) {
      // A query that dies in the parser still counts: dashboards read the
      // error rate as pdb_query_errors_total / pdb_queries_total.
      parse_span.End();
      Result<QueryAnswer> failed = parsed.status();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++queries_served_;
        TickTopLevelLocked(failed, MicrosSince(started));
      }
      RetainTrace(trace, finish_trace);
      return failed;
    }
    sentence = *std::move(parsed);
  }
  return QueryFoInternal(sentence, options, /*top_level=*/true,
                         std::move(trace), finish_trace);
}

Result<QueryAnswer> Session::QueryFo(const FoPtr& sentence,
                                     const QueryOptions& options) {
  return QueryFoInternal(sentence, options, /*top_level=*/true,
                         MakeTrace(options));
}

Result<QueryAnswer> Session::QueryFoInternal(
    const FoPtr& sentence, const QueryOptions& options, bool top_level,
    std::shared_ptr<QueryTrace> trace, bool finish_trace,
    JoinProfile* profile, bool bypass_cache) {
  const ExecContext::Clock::time_point started = ExecContext::Clock::now();
  const bool use_cache = options_.cache_results && !bypass_cache;
  std::string key;
  if (options_.cache_results) key = CacheKey(sentence, options);
  // Generation snapshot at query start: an answer may only be cached if
  // the database is still on this generation when the query finishes (see
  // the insert below). The snapshot also invalidates both caches lazily:
  // the first query after a mutation drops every stale entry.
  uint64_t generation_at_start = db_->generation();
  {
    TraceSpan probe_span(trace.get(), TracePhase::kCacheProbe);
    std::optional<QueryAnswer> hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      RefreshGenerationLocked(generation_at_start);
      if (use_cache) {
        if (const QueryAnswer* cached = CacheLookupLocked(key)) {
          tickers_.result_cache_hits->Add(1);
          hit = *cached;
          // A cached answer executed nothing in this query: hand back a
          // fresh report so per-query accounting stays isolated.
          hit->report = ExecReport{};
          hit->explanation += "; session result cache hit";
          if (top_level) {
            ++queries_served_;
            ++result_cache_hits_;
            Result<QueryAnswer> ok_answer = *hit;
            TickTopLevelLocked(ok_answer, MicrosSince(started));
          }
        } else {
          tickers_.result_cache_misses->Add(1);
        }
      }
    }
    if (hit) {
      probe_span.AddCounter("hit", 1);
      probe_span.End();
      if (top_level && trace) {
        RetainTrace(trace, finish_trace);
        hit->trace = trace;
      }
      return *std::move(hit);
    }
  }

  // Each query gets a private context (isolated counters, own deadline)
  // over the shared session pool and the session-shared WMC cache. A query
  // that asks for sequential execution gets no pool but still shares the
  // cache.
  ExecContext ctx(options.exec.num_threads == 1 ? nullptr : pool());
  ctx.set_wmc_cache(wmc_cache_.get());
  ctx.set_index_cache(index_cache_.get());
  ctx.set_trace(trace.get());
  ctx.set_join_profile(profile);
  if (options.exec.deadline_ms > 0) ctx.SetDeadline(options.exec.deadline_ms);
  InFlightGuard in_flight(this, &ctx, top_level);
  auto answer = db_->QueryFoWithContext(sentence, options, &ctx);
  ExecReport report = ctx.Report();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (top_level) {
      ++queries_served_;
      TickTopLevelLocked(answer, MicrosSince(started));
    }
    AggregateLocked(report);
    // Cache only if the database never mutated while this query ran: the
    // current generation must equal the snapshot taken at query start (a
    // `== generation_seen_` check alone races — a concurrent query could
    // advance generation_seen_ to a post-mutation generation and make this
    // stale answer look fresh).
    if (answer.ok() && options_.cache_results && answer->exact &&
        db_->generation() == generation_at_start &&
        generation_at_start == generation_seen_) {
      QueryAnswer cached = *answer;
      cached.report = report;
      cached.trace = nullptr;  // traces describe one execution, not the key
      CacheInsertLocked(std::move(key), std::move(cached));
    }
  }
  if (answer.ok()) answer->report = report;
  // Fan-out sub-queries only contribute spans; the owning call finishes
  // and retains the trace.
  if (top_level && trace) {
    RetainTrace(trace, finish_trace);
    if (answer.ok()) answer->trace = trace;
  }
  return answer;
}

Result<Relation> Session::QueryWithAnswers(
    const ConjunctiveQuery& cq, const std::vector<std::string>& head_vars,
    const QueryOptions& options, std::vector<AnswerTupleInfo>* info) {
  return QueryWithAnswersTraced(cq, head_vars, options, info,
                                MakeTrace(options));
}

Result<QueryAnswer> Session::QuerySqlBoolean(const std::string& sql,
                                             const QueryOptions& options) {
  return QuerySqlBooleanInternal(sql, options, MakeTrace(options),
                                 /*finish_trace=*/true);
}

Result<QueryAnswer> Session::QuerySqlBooleanTraced(
    const std::string& sql, const QueryOptions& options,
    std::shared_ptr<QueryTrace> trace) {
  return QuerySqlBooleanInternal(sql, options, std::move(trace),
                                 /*finish_trace=*/false);
}

Result<QueryAnswer> Session::QuerySqlBooleanInternal(
    const std::string& sql, const QueryOptions& options,
    std::shared_ptr<QueryTrace> trace, bool finish_trace) {
  const ExecContext::Clock::time_point started = ExecContext::Clock::now();
  CompiledSql compiled;
  {
    TraceSpan compile_span(trace.get(), TracePhase::kCompile);
    auto result = CompileSql(sql, db_->database());
    if (result.ok() && !result->boolean) {
      result = Status::InvalidArgument(
          "query selects columns; use QuerySqlAnswers (or SELECT PROB())");
    }
    if (!result.ok()) {
      compile_span.End();
      Result<QueryAnswer> failed = result.status();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++queries_served_;
        TickTopLevelLocked(failed, MicrosSince(started));
      }
      tickers_.sql_statement_latency_us->Record(MicrosSince(started));
      RetainTrace(trace, finish_trace);
      return failed;
    }
    compiled = *std::move(result);
  }
  QueryOptions effective = options;
  if (compiled.target_stderr > 0) {
    effective.monte_carlo_target_stderr = compiled.target_stderr;
  }
  auto answer = QueryFoInternal(Ucq({compiled.cq}).ToFo(), effective,
                                /*top_level=*/true, std::move(trace),
                                finish_trace);
  tickers_.sql_statement_latency_us->Record(MicrosSince(started));
  return answer;
}

Result<Relation> Session::QuerySqlAnswers(const std::string& sql,
                                          const QueryOptions& options,
                                          std::vector<AnswerTupleInfo>* info) {
  return QuerySqlAnswersInternal(sql, options, info, MakeTrace(options),
                                 /*finish_trace=*/true);
}

Result<Relation> Session::QuerySqlAnswersTraced(
    const std::string& sql, const QueryOptions& options,
    std::vector<AnswerTupleInfo>* info, std::shared_ptr<QueryTrace> trace) {
  return QuerySqlAnswersInternal(sql, options, info, std::move(trace),
                                 /*finish_trace=*/false);
}

Result<Relation> Session::QuerySqlAnswersInternal(
    const std::string& sql, const QueryOptions& options,
    std::vector<AnswerTupleInfo>* info, std::shared_ptr<QueryTrace> trace,
    bool finish_trace) {
  const ExecContext::Clock::time_point started = ExecContext::Clock::now();
  CompiledSql compiled;
  {
    TraceSpan compile_span(trace.get(), TracePhase::kCompile);
    auto result = CompileSql(sql, db_->database());
    if (result.ok() && result->boolean) {
      result = Status::InvalidArgument(
          "SELECT PROB() is Boolean; use QuerySqlBoolean");
    }
    if (!result.ok()) {
      compile_span.End();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++queries_served_;
        Result<QueryAnswer> failed = result.status();
        TickTopLevelLocked(failed, MicrosSince(started));
      }
      tickers_.sql_statement_latency_us->Record(MicrosSince(started));
      RetainTrace(trace, finish_trace);
      return result.status();
    }
    compiled = *std::move(result);
  }
  QueryOptions effective = options;
  if (compiled.target_stderr > 0) {
    effective.monte_carlo_target_stderr = compiled.target_stderr;
  }
  auto out = QueryWithAnswersTraced(compiled.cq, compiled.head_vars,
                                    effective, info, std::move(trace),
                                    finish_trace);
  tickers_.sql_statement_latency_us->Record(MicrosSince(started));
  return out;
}

Result<Relation> Session::QueryWithAnswersTraced(
    const ConjunctiveQuery& cq, const std::vector<std::string>& head_vars,
    const QueryOptions& options, std::vector<AnswerTupleInfo>* info,
    std::shared_ptr<QueryTrace> trace, bool finish_trace,
    JoinProfile* profile, ExecReport* report_out) {
  const ExecContext::Clock::time_point started = ExecContext::Clock::now();
  const Database& db = db_->database();
  std::set<std::string> vars = cq.Variables();
  for (const std::string& v : head_vars) {
    if (vars.count(v) == 0) {
      return Status::InvalidArgument(
          StrFormat("head variable '%s' does not occur in the query",
                    v.c_str()));
    }
  }
  // Candidate answers: distinct head-tuple bindings among the CQ matches,
  // each with a measured size of its residual lineage — DNF terms plus
  // distinct uncertain variables, i.e. the node count of the formula the
  // per-tuple marginal will actually ground — to weight the fan-out
  // schedule below.
  struct CandidateStat {
    size_t terms = 0;
    std::unordered_set<uint64_t> vars;  // (relation id << 40) | row
  };
  std::map<Tuple, CandidateStat> candidates;
  // Map head var -> (atom index, position) for extraction.
  std::vector<std::pair<size_t, size_t>> positions;
  for (const std::string& v : head_vars) {
    bool found = false;
    for (size_t i = 0; i < cq.atoms().size() && !found; ++i) {
      const Atom& atom = cq.atoms()[i];
      for (size_t j = 0; j < atom.args.size(); ++j) {
        if (atom.args[j].is_variable() && atom.args[j].var() == v) {
          positions.emplace_back(i, j);
          found = true;
          break;
        }
      }
    }
    PDB_CHECK(found);  // verified above: every head var occurs somewhere
  }
  std::vector<const Relation*> rel_by_atom;
  rel_by_atom.reserve(cq.atoms().size());
  for (const Atom& atom : cq.atoms()) {
    PDB_ASSIGN_OR_RETURN(const Relation* rel, db.Get(atom.predicate));
    rel_by_atom.push_back(rel);
  }

  // The candidate sweep below grounds against the session index cache, so
  // stale entries from a previous database generation must be dropped
  // first (QueryFoInternal does the same before touching its caches).
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshGenerationLocked(db_->generation());
  }

  // The batch context: shared by the candidate sweep (which grounds
  // through the compiled join engine against the session index cache) and
  // the per-tuple fan-out below.
  ExecContext ctx(options.exec.num_threads == 1 ? nullptr : pool());
  ctx.set_wmc_cache(wmc_cache_.get());
  ctx.set_index_cache(index_cache_.get());
  ctx.set_trace(trace.get());
  ctx.set_join_profile(profile);
  if (options.exec.deadline_ms > 0) ctx.SetDeadline(options.exec.deadline_ms);
  InFlightGuard in_flight(this, &ctx, /*top_level=*/true);

  {
    // The candidate sweep is the fan-out's grounding step: classify it
    // with the lineage phase.
    TraceSpan enumerate_span(trace.get(), TracePhase::kLineage);
    GroundingOptions grounding;
    grounding.exec = &ctx;
    std::unordered_map<const Relation*, uint64_t> rel_ids;
    PDB_RETURN_NOT_OK(EnumerateCqMatches(cq, db, [&](const CqMatch& match) {
      Tuple head;
      head.reserve(positions.size());
      for (const auto& [atom_idx, pos] : positions) {
        const LineageVar& lv = match.atom_rows[atom_idx];
        head.push_back(rel_by_atom[atom_idx]->tuple(lv.row)[pos]);
      }
      CandidateStat& stat = candidates[std::move(head)];
      ++stat.terms;
      for (size_t i = 0; i < match.atom_rows.size(); ++i) {
        const Relation* rel = rel_by_atom[i];
        const size_t row = match.atom_rows[i].row;
        if (rel->prob(row) == 1.0) continue;  // folds away in the lineage
        auto [id_it, unused] = rel_ids.emplace(rel, rel_ids.size());
        stat.vars.insert((id_it->second << 40) | row);
      }
    }, grounding));
    enumerate_span.AddCounter("candidates", candidates.size());
  }

  // Output schema: head variables typed by their first candidate (or int).
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < head_vars.size(); ++i) {
    ValueType type = candidates.empty() ? ValueType::kInt
                                        : (candidates.begin()->first)[i].type();
    attrs.push_back({head_vars[i], type});
  }
  Relation out("answers", Schema(std::move(attrs)));

  // Fan the per-answer-tuple marginal computations out across the session
  // pool: each candidate's residual Boolean query is independent, reads
  // the database const-only, and builds all mutable state (formula
  // manager, lineage, counters) locally. Inner queries run sequentially —
  // the fan-out already saturates the pool, and nesting pools would
  // oversubscribe — but still route through the session, so repeated
  // marginals hit the result cache and all of them share the session's
  // WMC subformula cache. The caller's deadline is armed on every inner
  // query (each overrun degrades to Monte Carlo, so the batch is bounded
  // by ~candidates × deadline / threads, never a hang) and on the batch
  // context so its report records the overrun.
  std::vector<Tuple> heads;
  std::vector<size_t> node_counts;
  heads.reserve(candidates.size());
  node_counts.reserve(candidates.size());
  for (auto& [head, stat] : candidates) {
    heads.push_back(head);
    // Measured residual-lineage size: the OR root, one term per match, one
    // node per distinct uncertain tuple.
    node_counts.push_back(1 + stat.terms + stat.vars.size());
  }
  QueryOptions inner = options;
  inner.exec.num_threads = 1;

  // Schedule the largest lineages first: ParallelFor claims loop indices
  // in ascending order, so running the fan-out through a size-sorted
  // indirection makes workers start on the heaviest marginals while the
  // small ones fill the tail — one giant answer tuple no longer straggles
  // the whole batch behind a thread that picked it up last. The weight is
  // the measured lineage node count (terms + distinct uncertain tuples),
  // not the raw match count, which over-weights candidates whose matches
  // reuse the same few tuples. Ties keep candidate order, so the schedule
  // (and the output order, which follows `heads`) is deterministic.
  std::vector<size_t> schedule(heads.size());
  std::iota(schedule.begin(), schedule.end(), size_t{0});
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&](size_t a, size_t b) {
                     return node_counts[a] > node_counts[b];
                   });

  std::vector<double> marginals(heads.size(), 0.0);
  std::vector<AnswerTupleInfo> infos(heads.size());
  std::vector<Status> statuses(heads.size());
  ParallelFor(&ctx, heads.size(), [&](size_t s) {
    size_t t = schedule[s];
    // Boolean residual query: substitute the head binding.
    ConjunctiveQuery grounded = cq;
    for (size_t i = 0; i < head_vars.size(); ++i) {
      grounded = grounded.Substitute(head_vars[i], heads[t][i]);
    }
    // Inner queries share the batch trace: their phase spans nest inside
    // the batch wall-time and are excluded from TopLevelNs().
    auto answer = QueryFoInternal(Ucq({grounded}).ToFo(), inner,
                                  /*top_level=*/false, trace);
    if (answer.ok()) {
      marginals[t] = answer->probability;
      infos[t].method = answer->method;
      infos[t].exact = answer->exact;
      infos[t].std_error = answer->std_error;
      infos[t].explanation = std::move(answer->explanation);
    } else {
      statuses[t] = answer.status();
    }
  });
  bool any_error = std::any_of(statuses.begin(), statuses.end(),
                               [](const Status& s) { return !s.ok(); });
  ExecReport batch_report = ctx.Report();
  if (report_out != nullptr) *report_out = batch_report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_served_;
    AggregateLocked(batch_report);
    tickers_.queries->Add(1);
    tickers_.query_latency_us->Record(MicrosSince(started));
    if (any_error) tickers_.query_errors->Add(1);
  }
  RetainTrace(trace, finish_trace);
  for (size_t t = 0; t < heads.size(); ++t) {
    PDB_RETURN_NOT_OK(statuses[t]);
    PDB_RETURN_NOT_OK(out.AddTuple(heads[t], marginals[t]));
  }
  if (info) *info = std::move(infos);
  return out;
}

Result<ExplainResult> Session::ExplainSql(const std::string& sql,
                                          bool analyze,
                                          const QueryOptions& options) {
  ExplainResult out;
  out.statement = sql;
  out.analyze = analyze;
  PDB_ASSIGN_OR_RETURN(CompiledSql compiled,
                       CompileSql(sql, db_->database()));
  out.boolean = compiled.boolean;
  FoPtr sentence = Ucq({compiled.cq}).ToFo();

  // Safety check = the lifted compiler itself: it either produces a
  // polynomial extensional plan (and, being polynomial, cheaply evaluates
  // it) or rejects the sentence as unsafe with the reason. This mirrors
  // exactly the routing gate in ProbDatabase::QueryFoWithContext.
  {
    auto lifted = LiftedProbabilityFo(sentence, db_->database(),
                                      options.lifted);
    if (lifted.ok()) {
      out.safe = true;
      out.safety = "safe: lifted extensional plan applies (polynomial)";
    } else if (lifted.status().code() == StatusCode::kUnsupported) {
      out.safe = false;
      out.safety = StrFormat("unsafe: %s", lifted.status().message().c_str());
    } else {
      out.safe = false;
      out.safety = lifted.status().message();
    }
  }

  // The compiled join plan: cost-based atom order with per-step
  // selectivity estimates, against the session index cache so the
  // estimates use the same cached dictionaries execution would.
  ExecContext plan_ctx;
  plan_ctx.set_index_cache(index_cache_.get());
  GroundingOptions grounding;
  grounding.exec = &plan_ctx;
  PDB_ASSIGN_OR_RETURN(
      JoinPlanProfile plan,
      PlanCqJoin(compiled.cq, db_->database(), grounding));

  if (!analyze) {
    out.method_predicted = true;
    out.method = (out.safe && options.prefer_lifted)
                     ? "lifted"
                     : "grounded-exact";
    out.plans.push_back(std::move(plan));
    return out;
  }

  // ANALYZE: execute for real, past the result cache (the point is to
  // observe execution), with a trace and a join profile on the context.
  out.method_predicted = false;
  QueryOptions effective = options;
  if (compiled.target_stderr > 0) {
    effective.monte_carlo_target_stderr = compiled.target_stderr;
  }
  auto trace = std::make_shared<QueryTrace>();
  JoinProfile profile;
  if (compiled.boolean) {
    PDB_ASSIGN_OR_RETURN(
        QueryAnswer answer,
        QueryFoInternal(sentence, effective, /*top_level=*/true, trace,
                        /*finish_trace=*/true, &profile,
                        /*bypass_cache=*/true));
    out.method = InferenceMethodToString(answer.method);
    out.probability = answer.probability;
    out.exact = answer.exact;
    out.std_error = answer.std_error;
    out.explanation = answer.explanation;
    out.report = answer.report;
  } else {
    std::vector<AnswerTupleInfo> infos;
    PDB_ASSIGN_OR_RETURN(
        Relation answers,
        QueryWithAnswersTraced(compiled.cq, compiled.head_vars, effective,
                               &infos, trace, /*finish_trace=*/true,
                               &profile, &out.report));
    out.answer_tuples = answers.size();
    out.exact = !infos.empty();
    for (const AnswerTupleInfo& info : infos) {
      const char* m = InferenceMethodToString(info.method);
      if (out.method.empty()) {
        out.method = m;
      } else if (out.method != m) {
        out.method = "mixed";
      }
      out.exact = out.exact && info.exact;
    }
    if (out.method.empty()) out.method = "none (no answer candidates)";
  }
  out.executed = true;
  out.trace = TraceData::FromTrace(*trace);
  // Executed plans (candidate sweep / grounding / Monte Carlo re-ground).
  // A lifted answer grounds nothing: keep the plan-only compile so the
  // atom-order table is still shown.
  out.plans = profile.plans();
  if (out.plans.empty()) out.plans.push_back(std::move(plan));
  return out;
}

}  // namespace pdb
