/// \file lifted.h
/// \brief Lifted (extensional) inference for UCQs and unate sentences
/// (paper §5).
///
/// The engine computes query probabilities by recursing on first-order
/// structure only — never materializing a lineage — using the paper's rule
/// set:
///
///   * independent-OR / independent-AND on symbol-disjoint subqueries
///     (rules 7 and their duals),
///   * separator-variable grounding (rule 8 and its dual),
///   * inclusion–exclusion with cancellation (rule 10): expansion terms are
///     canonicalized up to CQ equivalence and their coefficients summed, so
///     terms that cancel (which may be #P-hard!) are never evaluated.
///
/// Success implies PQE(Q) is computed in polynomial time in the data. A
/// query on which the rules fail is reported Unsupported; for self-join-free
/// CQs failure coincides exactly with non-hierarchy and thus #P-hardness
/// (Theorem 4.3); for UCQs the rules are the complete set of Theorem 5.1
/// modulo the ranking/shattering refinements, which this implementation
/// omits (documented limitation; all queries discussed in the paper are
/// covered).

#ifndef PDB_LIFTED_LIFTED_H_
#define PDB_LIFTED_LIFTED_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "logic/analysis.h"
#include "logic/cq.h"
#include "storage/database.h"
#include "storage/index_cache.h"
#include "util/status.h"

namespace pdb {

class ExecContext;

/// Knobs for the lifted engine.
struct LiftedOptions {
  /// Disable to ablate the inclusion–exclusion rule (Q_J then fails; see
  /// bench_inclusion_exclusion).
  bool use_inclusion_exclusion = true;
  /// Optional human-readable derivation log (appended, indented by depth).
  std::vector<std::string>* trace = nullptr;
};

/// Counters describing one computation.
struct LiftedStats {
  uint64_t independent_unions = 0;
  uint64_t independent_products = 0;
  uint64_t separator_groundings = 0;
  uint64_t inclusion_exclusions = 0;
  /// Widest single inclusion–exclusion application (number of disjuncts or
  /// conjuncts expanded — the exponent of that step's 2^n - 1 subsets).
  uint64_t ie_max_width = 0;
  uint64_t ie_terms_total = 0;
  uint64_t ie_terms_cancelled = 0;
  uint64_t cache_hits = 0;
  uint64_t base_evaluations = 0;
};

/// Lifted inference over one database instance.
class LiftedEngine {
 public:
  /// `exec`, when non-null, serves the engine's index probes from its
  /// index cache and counts them. Probes of the unate rewrite's complements,
  /// and every probe when `exec` carries no index cache, go to a cache that
  /// lives as long as the engine (storage/index_cache.h, Lifecycle).
  explicit LiftedEngine(const Database& db, LiftedOptions options = {},
                        ExecContext* exec = nullptr)
      : db_(db), options_(options), exec_(exec) {}

  /// Probability of the UCQ; Unsupported when the rules do not apply
  /// (the query is then #P-hard for the classes with a known dichotomy).
  Result<double> Compute(const Ucq& ucq);

  const LiftedStats& stats() const { return stats_; }

 private:
  using CqVec = std::vector<ConjunctiveQuery>;

  Result<double> ComputeUnion(CqVec disjuncts, size_t depth);
  Result<double> ComputeConjunction(CqVec conjuncts, size_t depth);
  /// Inclusion–exclusion (rule 10) over a union's disjuncts
  /// (`over_union`) or, dually, over a conjunction's conjuncts.
  Result<double> InclusionExclusion(const CqVec& items, bool over_union,
                                    size_t depth);
  Result<double> GroundSeparator(const CqVec& disjuncts,
                                 const std::vector<std::string>& roots,
                                 size_t depth);
  /// Set of constants the separator must range over (values with any
  /// nonzero disjunct), read through an index on each atom's constants.
  Result<std::set<Value>> SeparatorSupport(
      const CqVec& disjuncts, const std::vector<std::string>& roots);

  /// Applies data-level simplifications to one CQ; returns unsatisfiable
  /// (nullopt-like flag) via `satisfiable`.
  Result<ConjunctiveQuery> PreprocessCq(const ConjunctiveQuery& cq,
                                        bool* satisfiable) const;

  void Trace(size_t depth, const std::string& message);

  const Database& db_;
  LiftedOptions options_;
  ExecContext* exec_;
  IndexCache call_cache_{{.num_shards = 1}};
  LiftedStats stats_;
  std::map<std::string, double> cache_;
  std::set<std::string> in_progress_;  // cycle detection => rules failed
};

/// Convenience wrapper: probability of a UCQ over `db`.
Result<double> LiftedProbability(const Ucq& ucq, const Database& db,
                                 LiftedOptions options = {},
                                 LiftedStats* stats = nullptr);

/// Probability of a unate FO sentence with a pure ∃*/∀* quantifier
/// structure (Theorem 4.1's class): rewrites negated symbols to complement
/// relations and universal sentences through their negation, then runs the
/// lifted engine with `exec`.
Result<double> LiftedProbabilityFo(const FoPtr& sentence, const Database& db,
                                   LiftedOptions options = {},
                                   LiftedStats* stats = nullptr,
                                   ExecContext* exec = nullptr);

}  // namespace pdb

#endif  // PDB_LIFTED_LIFTED_H_
