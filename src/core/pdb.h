/// \file pdb.h
/// \brief Public engine facade: a probabilistic database with automatic
/// inference-strategy selection.
///
/// `ProbDatabase` owns a TID and answers queries by picking the best
/// applicable method, mirroring the paper's architecture:
///
///   1. lifted inference (§5) — polynomial time, exact — when the query is
///      safe;
///   2. grounded inference (§7): lineage + DPLL-style weighted model
///      counting — exact but possibly exponential — within a decision
///      budget;
///   3. otherwise approximation: extensional plan bounds (§6, for
///      self-join-free CQs) and Monte Carlo estimation.
///
/// Boolean queries return a probability; non-Boolean conjunctive queries
/// return a relation of answer tuples with their marginal probabilities.

#ifndef PDB_CORE_PDB_H_
#define PDB_CORE_PDB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "exec/context.h"
#include "lifted/lifted.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdb {

class Session;

/// Which engine produced an answer.
enum class InferenceMethod {
  kLifted,
  kGroundedExact,
  kMonteCarlo,
  kPlanBounds,
};

const char* InferenceMethodToString(InferenceMethod method);

/// Answer to a Boolean query.
struct QueryAnswer {
  double probability = 0.0;
  /// Guaranteed (or, for Monte Carlo, ±2σ) enclosure of the truth.
  double lower = 0.0;
  double upper = 1.0;
  InferenceMethod method = InferenceMethod::kLifted;
  bool exact = false;
  /// Standard error of a Monte Carlo estimate (0 for exact answers).
  double std_error = 0.0;
  std::string explanation;
  /// Execution counters for this query (threads, samples, cache hits,
  /// whether a deadline fired).
  ExecReport report;
  /// Per-phase trace of this execution when `QueryOptions::trace` was set
  /// or the caller passed a trace to the Session entry point; null
  /// otherwise (and on answers restored from the result cache before
  /// tracing — the trace of a cache hit covers only parse + cache probe).
  std::shared_ptr<const QueryTrace> trace;
};

/// Per-answer-tuple execution metadata of QueryWithAnswers, parallel to the
/// rows of the returned relation: which engine produced each marginal and,
/// for sampled marginals, the achieved standard error.
struct AnswerTupleInfo {
  InferenceMethod method = InferenceMethod::kLifted;
  bool exact = false;
  /// Standard error of the tuple's marginal (0 when exact).
  double std_error = 0.0;
  std::string explanation;
};

/// Tuning for query evaluation.
struct QueryOptions {
  /// Try lifted inference first (turn off to force grounded evaluation).
  bool prefer_lifted = true;
  /// DPLL decision budget before falling back to approximation.
  uint64_t max_dpll_decisions = 1u << 22;
  /// Allow the Monte Carlo fallback.
  bool allow_monte_carlo = true;
  uint64_t monte_carlo_samples = 200000;
  uint64_t monte_carlo_seed = 20200614;  // PODS'20 opening day
  /// When > 0, the Karp-Luby fallback runs the adaptive (anytime)
  /// estimator: it draws samples in batches and stops as soon as the
  /// running standard error falls to this target (or the deadline fires),
  /// instead of always spending the full `monte_carlo_samples` budget.
  /// 0 keeps the classic fixed-budget estimator, bit-for-bit.
  double monte_carlo_target_stderr = 0.0;
  /// Record a per-phase `QueryTrace` for this query (obs/trace.h); the
  /// finished trace rides on `QueryAnswer::trace` and in the session's
  /// ring buffer of recent traces. Off by default: tracing costs clock
  /// reads in the deep loops. Like `LiftedOptions::trace`, this is a
  /// metadata side channel and is deliberately not part of the result
  /// cache key — a cache hit yields a trace without execution phases.
  bool trace = false;
  LiftedOptions lifted;
  /// Parallelism and wall-clock budget. With `deadline_ms` set, exact
  /// grounded inference that overruns the budget falls back to Monte Carlo
  /// (the approximation itself runs with the deadline cleared, so a budget
  /// overrun yields an estimate, never an error or a hang). Monte Carlo
  /// estimates are bit-identical across `num_threads` for a fixed seed.
  ExecOptions exec;
};

/// Parses Boolean query text: an FO sentence or the datalog-style UCQ
/// shorthand; free variables are existentially closed.
Result<FoPtr> ParseBooleanQuery(const std::string& query_text);

/// A tuple-independent probabilistic database plus its query engines.
///
/// Queries are answered through a `Session` (core/session.h): a long-lived
/// object owning the worker pool and the cross-query result cache. The
/// Query* methods below are thin wrappers that route through a private
/// per-call session, preserving the one-shot semantics (pool per query, no
/// caching); callers serving many concurrent queries should hold one
/// Session and issue queries through it so all of them share workers.
class ProbDatabase {
 public:
  ProbDatabase() = default;
  explicit ProbDatabase(Database db) : db_(std::move(db)) {}

  Database& database() { return db_; }
  const Database& database() const { return db_; }

  Status AddRelation(Relation relation) {
    Status status = db_.AddRelation(std::move(relation));
    // Bump only on success — a failed add changes nothing, so sessions
    // need not drop their caches for it.
    if (status.ok()) BumpGeneration();
    return status;
  }

  /// Mutation counter used by sessions to invalidate their caches. Bumped
  /// by AddRelation; callers mutating relations through `database()`
  /// directly must call BumpGeneration() (or Session::InvalidateCache)
  /// themselves.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_release);
  }

  /// Parses and evaluates a Boolean query. The text may be an FO sentence
  /// ("forall x forall y (S(x,y) => R(x))") or the datalog-style UCQ
  /// shorthand ("R(x), S(x,y) ; T(u), S(u,v)"). Free variables are
  /// existentially closed.
  Result<QueryAnswer> Query(const std::string& query_text,
                            const QueryOptions& options = {}) const;

  /// Evaluates a non-Boolean conjunctive query: `head_vars` become the
  /// output columns, and each distinct answer tuple carries its marginal
  /// probability. The CQ's remaining variables are existential. When
  /// `info` is non-null it receives one `AnswerTupleInfo` per output row
  /// (method, exactness, achieved std error).
  Result<Relation> QueryWithAnswers(const ConjunctiveQuery& cq,
                                    const std::vector<std::string>& head_vars,
                                    const QueryOptions& options = {},
                                    std::vector<AnswerTupleInfo>* info =
                                        nullptr) const;

  /// Conditional probability P(query | evidence) — the paper's §3
  /// mechanism for correlations: both sentences are grounded jointly and
  /// the ratio P(query ∧ evidence) / P(evidence) is counted exactly.
  Result<double> ConditionalProbability(const FoPtr& query,
                                        const FoPtr& evidence,
                                        const QueryOptions& options = {}) const;

  /// Influence of each uncertain tuple on a Boolean query:
  /// P(Q | t present) - P(Q | t absent), the sensitivity of the answer to
  /// that tuple. Returns the `k` most influential tuples, largest absolute
  /// influence first. Exact (lineage cofactors + DPLL).
  struct TupleInfluence {
    std::string relation;
    Tuple tuple;
    double influence = 0.0;
  };
  Result<std::vector<TupleInfluence>> TopInfluences(
      const FoPtr& sentence, size_t k,
      const QueryOptions& options = {}) const;

  /// Evaluates "SELECT PROB() FROM ... WHERE ..." (see sql/sql.h).
  Result<QueryAnswer> QuerySqlBoolean(const std::string& sql,
                                      const QueryOptions& options = {}) const;

  /// Evaluates a column-select SQL query: answer tuples with marginals.
  Result<Relation> QuerySqlAnswers(const std::string& sql,
                                   const QueryOptions& options = {}) const;

 private:
  friend class Session;

  /// Strategy-selection pipeline behind every Boolean query, running
  /// against an already-configured execution context (pool + deadline).
  Result<QueryAnswer> QueryFoWithContext(const FoPtr& sentence,
                                         const QueryOptions& options,
                                         ExecContext* ctx) const;

  Database db_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace pdb

#endif  // PDB_CORE_PDB_H_
