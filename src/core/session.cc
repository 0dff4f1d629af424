#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <type_traits>
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

/// Which front end a text statement takes; kSql accepts either kind of
/// SQL statement.
enum class Syntax { kFo, kSqlBoolean, kSqlAnswers, kSql };

/// A text statement after its front end.
struct Statement {
  FoPtr sentence;        ///< Boolean statements
  CompiledSql compiled;  ///< SQL: the CQ and, for column selects, its head
  QueryOptions options;  ///< the caller's, with WITH STDERR applied
};

/// The front end of every text statement, inside its parse (FO/UCQ text)
/// or compile (SQL) span: checks the statement is the kind its entry point
/// answers and applies a WITH STDERR clause to the options.
Result<Statement> FrontEnd(const std::string& text, Syntax syntax,
                           const Database& db, const QueryOptions& options,
                           QueryTrace* trace) {
  Statement out{nullptr, {}, options};
  if (syntax == Syntax::kFo) {
    TraceSpan parse_span(trace, TracePhase::kParse);
    PDB_ASSIGN_OR_RETURN(out.sentence, ParseBooleanQuery(text));
    return out;
  }
  TraceSpan compile_span(trace, TracePhase::kCompile);
  PDB_ASSIGN_OR_RETURN(out.compiled, CompileSql(text, db));
  const bool boolean = out.compiled.boolean;
  if (syntax == Syntax::kSqlBoolean && !boolean) {
    return Status::InvalidArgument(
        "query selects columns; use QuerySqlAnswers (or SELECT PROB())");
  }
  if (syntax == Syntax::kSqlAnswers && boolean) {
    return Status::InvalidArgument(
        "SELECT PROB() is Boolean; use QuerySqlBoolean");
  }
  if (out.compiled.target_stderr > 0) {
    out.options.monte_carlo_target_stderr = out.compiled.target_stderr;
  }
  if (boolean) out.sentence = Ucq({out.compiled.cq}).ToFo();
  return out;
}

}  // namespace

/// The execution context of one engine run through the session: the
/// session pool (unless the query asks for sequential execution), the
/// shared caches, the trace, the join profile and the deadline. It is
/// visible to Session::CancelInFlight() while it lives, and its report is
/// folded into the session's tickers when it goes, on every exit path.
class LiveContext {
 public:
  LiveContext(Session* session, const QueryOptions& options,
              QueryTrace* trace, JoinProfile* profile)
      : session_(session),
        ctx_(options.exec.num_threads == 1 ? nullptr : session->pool()) {
    ctx_.set_wmc_cache(session->wmc_cache());
    ctx_.set_index_cache(session->index_cache());
    ctx_.set_trace(trace);
    ctx_.set_join_profile(profile);
    ctx_.SetDeadline(options.exec.deadline_ms);  // 0 leaves it disarmed
    std::lock_guard<std::mutex> lock(session_->mu_);
    session_->live_contexts_.insert(&ctx_);
  }
  ~LiveContext() {
    const ExecReport& folded = report();
    std::lock_guard<std::mutex> lock(session_->mu_);
    session_->live_contexts_.erase(&ctx_);
    session_->AggregateLocked(folded);
  }

  LiveContext(const LiveContext&) = delete;
  LiveContext& operator=(const LiveContext&) = delete;

  ExecContext* get() { return &ctx_; }

  /// The context's counters, snapshotted on first call; the fold uses the
  /// same snapshot, so an answer's report and the tickers agree.
  const ExecReport& report() {
    if (!report_) report_ = ctx_.Report();
    return *report_;
  }

 private:
  Session* session_;
  ExecContext ctx_;
  std::optional<ExecReport> report_;
};

Session::Session(const ProbDatabase* db, SessionOptions options)
    : db_(db),
      options_(options),
      resolved_threads_(ResolveThreads(options.num_threads)),
      generation_seen_(db->generation()) {
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
  // Resolve every engine ticker once; updates are then lock-free.
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    tickers_.exec[i] = metrics_.GetCounter(kExecCounters[i].metric);
  }
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
  tickers_.wmc_shared_inserts =
      metrics_.GetCounter("pdb_wmc_shared_inserts_total");
  tickers_.wmc_shared_evictions =
      metrics_.GetCounter("pdb_wmc_shared_evictions_total");
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
  return tickers_.requests_in_flight->value();
}

void Session::NoteAdmissionRejected() {
  // Under mu_ like every fold, so CumulativeReport() never sees the drop
  // in one ticker and not the other.
  std::lock_guard<std::mutex> lock(mu_);
  tickers_.admission_rejected->Add(1);
  tickers_.exec[static_cast<size_t>(ExecCounter::kShedTasks)]->Add(1);
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
  index_cache_.Clear();
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
  index_cache_.Clear();
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

uint64_t Session::queries_served() const { return tickers_.queries->value(); }

uint64_t Session::result_cache_hits() const {
  return tickers_.result_cache_hits->value();
}

WmcCacheStats Session::wmc_cache_stats() const {
  return wmc_cache_ ? wmc_cache_->stats() : WmcCacheStats{};
}

IndexCacheStats Session::index_cache_stats() const {
  return index_cache_.stats();
}

ExecReport Session::CumulativeReport() const {
  ExecReport report;
  report.num_threads = resolved_threads_;
  {
    std::lock_guard<std::mutex> lock(mu_);  // whole folds only
    for (size_t i = 0; i < kNumExecCounters; ++i) {
      report.*kExecCounters[i].field = tickers_.exec[i]->value();
    }
    report.admission_rejected = tickers_.admission_rejected->value();
    report.cancelled = tickers_.queries_cancelled->value() > 0;
    report.deadline_exceeded = tickers_.deadline_exceeded->value() > 0;
  }
  // pdb_shed_total also counts the admission drops.
  report.shed_tasks -= report.admission_rejected;
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
  tickers_.index_cache_entries->Set(
      static_cast<int64_t>(index_cache_.stats().entries));
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

void Session::AggregateLocked(const ExecReport& report) {
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    tickers_.exec[i]->Add(report.*kExecCounters[i].field);
  }
  if (report.deadline_exceeded) tickers_.deadline_exceeded->Add(1);
  if (report.cancelled) tickers_.queries_cancelled->Add(1);
}

template <typename T, typename Body>
Result<T> Session::TopLevel(const QueryOptions& options,
                            std::shared_ptr<QueryTrace> trace, bool sql,
                            Body body) {
  const ExecContext::Clock::time_point started = ExecContext::Clock::now();
  const bool own_trace = trace == nullptr && options.trace;
  if (own_trace) trace = std::make_shared<QueryTrace>();
  tickers_.requests_in_flight->Add(1);
  Result<T> result = body(trace.get());
  tickers_.requests_in_flight->Add(-1);
  const uint64_t latency_us = MicrosSince(started);
  tickers_.queries->Add(1);
  tickers_.query_latency_us->Record(latency_us);
  if (sql) tickers_.sql_statement_latency_us->Record(latency_us);
  // The Boolean answer, if the call produced one.
  QueryAnswer* answer = nullptr;
  if constexpr (std::is_same_v<T, QueryAnswer>) {
    if (result.ok()) answer = &*result;
  } else if constexpr (std::is_same_v<T, SqlAnswer>) {
    if (result.ok() && result->boolean) answer = &result->answer;
  }
  if (!result.ok()) {
    // Dashboards read the error rate as errors / pdb_queries_total.
    tickers_.query_errors->Add(1);
  } else if (answer != nullptr) {
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
    if (trace) answer->trace = trace;
  }
  if (trace) {
    // A caller's trace stays open for the spans it records after us.
    if (own_trace) trace->Finish();
    std::lock_guard<std::mutex> lock(mu_);
    traces_.push_front(std::move(trace));
    while (traces_.size() > options_.trace_ring_size) traces_.pop_back();
  }
  return result;
}

std::string Session::CacheKey(const FoPtr& sentence,
                              const QueryOptions& options) {
  // Only exact answers are cached, so the key covers every option that can
  // shape an exact answer's value *or* metadata (method/explanation/bounds):
  // the lifted preference, the DPLL decision budget, the Monte Carlo
  // fallback toggle, and the lifted-engine knob that decides whether lifted
  // inference succeeds (and hence which engine is reported). Thread counts,
  // deadlines, and sampling parameters cannot change an exact answer. One
  // caveat: LiftedOptions::trace is a side channel — a cache hit skips the
  // derivation log the first execution would have appended.
  return StrFormat("%d|%llu|%d|%d|", options.prefer_lifted ? 1 : 0,
                   static_cast<unsigned long long>(
                       options.max_dpll_decisions),
                   options.allow_monte_carlo ? 1 : 0,
                   options.lifted.use_inclusion_exclusion ? 1 : 0) +
         sentence->ToString();
}

Result<QueryAnswer> Session::Query(const std::string& query_text,
                                   const QueryOptions& options,
                                   std::shared_ptr<QueryTrace> trace) {
  return TopLevel<QueryAnswer>(
      options, std::move(trace), /*sql=*/false,
      [&](QueryTrace* t) -> Result<QueryAnswer> {
        PDB_ASSIGN_OR_RETURN(Statement statement,
                             FrontEnd(query_text, Syntax::kFo,
                                      db_->database(), options, t));
        return QueryFoInternal(statement.sentence, statement.options, t);
      });
}

Result<QueryAnswer> Session::QuerySqlBoolean(
    const std::string& sql, const QueryOptions& options,
    std::shared_ptr<QueryTrace> trace) {
  return TopLevel<QueryAnswer>(
      options, std::move(trace), /*sql=*/true,
      [&](QueryTrace* t) -> Result<QueryAnswer> {
        PDB_ASSIGN_OR_RETURN(Statement statement,
                             FrontEnd(sql, Syntax::kSqlBoolean,
                                      db_->database(), options, t));
        return QueryFoInternal(statement.sentence, statement.options, t);
      });
}

Result<Relation> Session::QuerySqlAnswers(const std::string& sql,
                                          const QueryOptions& options,
                                          std::vector<AnswerTupleInfo>* info,
                                          std::shared_ptr<QueryTrace> trace) {
  return TopLevel<Relation>(
      options, std::move(trace), /*sql=*/true,
      [&](QueryTrace* t) -> Result<Relation> {
        PDB_ASSIGN_OR_RETURN(Statement statement,
                             FrontEnd(sql, Syntax::kSqlAnswers,
                                      db_->database(), options, t));
        return QueryWithAnswersInternal(statement.compiled.cq,
                                        statement.compiled.head_vars,
                                        statement.options, info, t);
      });
}

Result<SqlAnswer> Session::QuerySql(const std::string& sql,
                                    const QueryOptions& options,
                                    std::shared_ptr<QueryTrace> trace) {
  return TopLevel<SqlAnswer>(
      options, std::move(trace), /*sql=*/true,
      [&](QueryTrace* t) -> Result<SqlAnswer> {
        PDB_ASSIGN_OR_RETURN(
            Statement statement,
            FrontEnd(sql, Syntax::kSql, db_->database(), options, t));
        SqlAnswer out;
        out.boolean = statement.compiled.boolean;
        if (out.boolean) {
          PDB_ASSIGN_OR_RETURN(out.answer,
                               QueryFoInternal(statement.sentence,
                                               statement.options, t));
        } else {
          PDB_ASSIGN_OR_RETURN(
              out.tuples, QueryWithAnswersInternal(
                              statement.compiled.cq,
                              statement.compiled.head_vars,
                              statement.options, &out.info, t));
        }
        return out;
      });
}

Result<Relation> Session::QueryWithAnswers(
    const ConjunctiveQuery& cq, const std::vector<std::string>& head_vars,
    const QueryOptions& options, std::vector<AnswerTupleInfo>* info) {
  return TopLevel<Relation>(options, nullptr, /*sql=*/false,
                            [&](QueryTrace* t) {
                              return QueryWithAnswersInternal(
                                  cq, head_vars, options, info, t);
                            });
}

Result<QueryAnswer> Session::QueryFoInternal(const FoPtr& sentence,
                                             const QueryOptions& options,
                                             QueryTrace* trace,
                                             JoinProfile* profile,
                                             bool bypass_cache) {
  const bool use_cache = options_.cache_results && !bypass_cache;
  std::string key;
  if (options_.cache_results) key = CacheKey(sentence, options);
  // Generation snapshot at query start: an answer may only be cached if
  // the database is still on this generation when the query finishes (see
  // the insert below). The snapshot also invalidates both caches lazily:
  // the first query after a mutation drops every stale entry.
  uint64_t generation_at_start = db_->generation();
  {
    TraceSpan probe_span(trace, TracePhase::kCacheProbe);
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
        } else {
          tickers_.result_cache_misses->Add(1);
        }
      }
    }
    if (hit) {
      probe_span.AddCounter("hit", 1);
      return *std::move(hit);
    }
  }

  // Each query gets a private context (isolated counters, own deadline)
  // over the shared session pool and the session-shared WMC cache. A query
  // that asks for sequential execution gets no pool but still shares the
  // cache.
  LiveContext ctx(this, options, trace, profile);
  auto answer = db_->QueryFoWithContext(sentence, options, ctx.get());
  const ExecReport& report = ctx.report();
  // Cache only if the database never mutated while this query ran: the
  // current generation must equal the snapshot taken at query start (a
  // `== generation_seen_` check alone races — a concurrent query could
  // advance generation_seen_ to a post-mutation generation and make this
  // stale answer look fresh).
  if (answer.ok() && options_.cache_results && answer->exact) {
    std::lock_guard<std::mutex> lock(mu_);
    if (db_->generation() == generation_at_start &&
        generation_at_start == generation_seen_) {
      QueryAnswer cached = *answer;
      cached.report = report;
      cached.trace = nullptr;  // traces describe one execution, not the key
      CacheInsertLocked(std::move(key), std::move(cached));
    }
  }
  if (answer.ok()) answer->report = report;
  return answer;
}

Result<Relation> Session::QueryWithAnswersInternal(
    const ConjunctiveQuery& cq, const std::vector<std::string>& head_vars,
    const QueryOptions& options, std::vector<AnswerTupleInfo>* info,
    QueryTrace* trace, JoinProfile* profile, ExecReport* report_out) {
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
  LiveContext ctx(this, options, trace, profile);

  {
    // The candidate sweep is the fan-out's grounding step: classify it
    // with the lineage phase.
    TraceSpan enumerate_span(trace, TracePhase::kLineage);
    GroundingOptions grounding;
    grounding.exec = ctx.get();
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
  ParallelFor(ctx.get(), heads.size(), [&](size_t s) {
    size_t t = schedule[s];
    // Boolean residual query: substitute the head binding.
    ConjunctiveQuery grounded = cq;
    for (size_t i = 0; i < head_vars.size(); ++i) {
      grounded = grounded.Substitute(head_vars[i], heads[t][i]);
    }
    // Inner queries share the batch trace: their phase spans nest inside
    // the batch wall-time and are excluded from TopLevelNs().
    auto answer = QueryFoInternal(Ucq({grounded}).ToFo(), inner, trace);
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
  if (report_out != nullptr) *report_out = ctx.report();
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
  // The safety check and the join plan probe the session's cached indexes,
  // so the plan's estimates use the same dictionaries execution would.
  ExecContext plan_ctx;
  plan_ctx.set_index_cache(&index_cache_);

  // Safety check = the lifted compiler itself: it either produces a
  // polynomial extensional plan (and, being polynomial, cheaply evaluates
  // it) or rejects the sentence as unsafe with the reason. This mirrors
  // exactly the routing gate in ProbDatabase::QueryFoWithContext.
  {
    auto lifted = LiftedProbabilityFo(sentence, db_->database(),
                                      options.lifted, nullptr, &plan_ctx);
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
  // selectivity estimates.
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
  Status executed;
  if (compiled.boolean) {
    auto answer = TopLevel<QueryAnswer>(
        effective, trace, /*sql=*/false, [&](QueryTrace* t) {
          return QueryFoInternal(sentence, effective, t, &profile,
                                 /*bypass_cache=*/true);
        });
    executed = answer.status();
    if (answer.ok()) {
      out.method = InferenceMethodToString(answer->method);
      out.probability = answer->probability;
      out.exact = answer->exact;
      out.std_error = answer->std_error;
      out.explanation = answer->explanation;
      out.report = answer->report;
    }
  } else {
    std::vector<AnswerTupleInfo> infos;
    auto answers = TopLevel<Relation>(
        effective, trace, /*sql=*/false, [&](QueryTrace* t) {
          return QueryWithAnswersInternal(compiled.cq, compiled.head_vars,
                                          effective, &infos, t, &profile,
                                          &out.report);
        });
    executed = answers.status();
    if (answers.ok()) {
      out.answer_tuples = answers->size();
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
  }
  // The trace entered the ring open, like any caller's trace: finish it
  // on every path.
  trace->Finish();
  PDB_RETURN_NOT_OK(executed);
  out.executed = true;
  out.trace = TraceData::FromTrace(*trace);
  // Executed plans (candidate sweep / grounding).
  // A lifted answer grounds nothing: keep the plan-only compile so the
  // atom-order table is still shown.
  out.plans = profile.plans();
  if (out.plans.empty()) out.plans.push_back(std::move(plan));
  return out;
}

}  // namespace pdb
