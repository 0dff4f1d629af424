/// \file explain.h
/// \brief EXPLAIN [ANALYZE]: the query-introspection surface.
///
/// The paper's dichotomy means the *same* SELECT can be answered by a
/// polynomial lifted plan or an exponential grounded search; `EXPLAIN`
/// shows which, before paying for it, and `EXPLAIN ANALYZE` executes the
/// statement and lays the optimizer's selectivity *estimates* beside the
/// *actual* per-step match counts the join executor observed — so a
/// cardinality misestimate (a correlated dataset breaking the independence
/// assumption behind the cost-based atom order) is reported per atom
/// instead of hidden inside a slow query.
///
/// An `ExplainResult` carries:
///  - the routing decision: the safety-check verdict and the inference
///    method (predicted for plain EXPLAIN, actual for ANALYZE);
///  - the compiled join plan(s): cost-based atom order, per-step estimated
///    vs actual rows, and the match count;
///  - for ANALYZE: the answer, the `ExecReport` counters (cache and index
///    attribution), and the full per-phase `TraceData`.
///
/// `ToText()` renders the human table; `ToJson()` the machine form served
/// by pdbd and embedded in slow-query log entries (obs/log.h).

#ifndef PDB_SQL_EXPLAIN_H_
#define PDB_SQL_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/context.h"
#include "exec/join_profile.h"
#include "obs/trace.h"

namespace pdb {

/// The rendered outcome of EXPLAIN [ANALYZE] <statement>. Produced by
/// `Session::ExplainSql` (core/session.h).
struct ExplainResult {
  /// The statement being explained (EXPLAIN prefix stripped).
  std::string statement;
  bool analyze = false;
  /// SELECT PROB() (Boolean) vs a column select (answer tuples).
  bool boolean = true;

  /// Inference route: "lifted", "grounded-exact", "monte-carlo",
  /// "plan-bounds". For plain EXPLAIN this is the *prediction* implied by
  /// the safety check; ANALYZE reports the method that actually answered.
  std::string method;
  bool method_predicted = true;
  /// Safety-check verdict: the query is safe (a lifted extensional plan
  /// exists, polynomial data complexity) or not, with the reason.
  bool safe = false;
  std::string safety;

  /// Compiled join plan(s): plan-only (EXPLAIN) or executed (ANALYZE, from
  /// the `JoinProfile` the executor filled). One entry per grounded CQ.
  std::vector<JoinPlanProfile> plans;

  /// ANALYZE only: the statement actually ran.
  bool executed = false;
  double probability = 0.0;  ///< Boolean statements
  bool exact = false;
  double std_error = 0.0;
  uint64_t answer_tuples = 0;  ///< column selects: distinct answers
  std::string explanation;     ///< the engine's answer explanation
  /// ANALYZE only: execution counters (lineage matches, DPLL decisions,
  /// index/WMC/result-cache hit attribution, samples).
  ExecReport report;
  /// ANALYZE only: the per-phase trace of the execution.
  TraceData trace;

  /// Human-readable rendering: routing, the per-atom estimate-vs-actual
  /// table, and (for ANALYZE) answer + counters + phase timings.
  std::string ToText() const;
  /// Machine form: one JSON object (no trailing newline).
  std::string ToJson() const;
};

}  // namespace pdb

#endif  // PDB_SQL_EXPLAIN_H_
