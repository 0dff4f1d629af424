/// \file plan.h
/// \brief Extensional query plans over probabilistic relations (paper §6).
///
/// Plans are trees of three operators:
///  * Scan(atom)      — reads a relation, binding the atom's variables;
///  * Join(l, r)      — natural join on shared variables, probabilities
///                      multiplied (independent-AND per tuple pair);
///  * Project(child, keep) — group-by on `keep`, combining group
///                      probabilities with u ⊕ v = 1 - (1-u)(1-v)
///                      (independent-OR).
/// Executing a plan for a Boolean query yields one number. A *safe* plan
/// returns exactly p_D(Q); any plan — safe or not — returns an upper bound
/// (Theorem 6.1), and run on the dissociated database it returns a lower
/// bound.

#ifndef PDB_PLANS_PLAN_H_
#define PDB_PLANS_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdb {

class ExecContext;
class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

enum class PlanKind {
  kScan,
  kJoin,
  kProject,
};

/// One operator of a query plan (immutable, shared).
class PlanNode {
 public:
  /// Scan of the relation named by `atom.predicate`; constants select,
  /// repeated variables filter, distinct variables become columns.
  static PlanPtr Scan(Atom atom);
  /// Natural join on the shared variables.
  static PlanPtr Join(PlanPtr left, PlanPtr right);
  /// Independent-project: keep `keep` columns, ⊕-aggregate duplicates.
  static PlanPtr Project(PlanPtr child, std::vector<std::string> keep);

  PlanKind kind() const { return kind_; }
  const Atom& atom() const { return atom_; }
  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }
  const PlanPtr& child() const { return left_; }
  const std::vector<std::string>& keep() const { return keep_; }

  /// Output variables (sorted).
  const std::vector<std::string>& output_vars() const { return output_vars_; }

  /// e.g. "Project{}(Join(Scan(R(x)), Project{x}(Scan(S(x, y)))))".
  std::string ToString() const;

 private:
  PlanNode() = default;

  PlanKind kind_ = PlanKind::kScan;
  Atom atom_;
  PlanPtr left_;
  PlanPtr right_;
  std::vector<std::string> keep_;
  std::vector<std::string> output_vars_;

  friend struct PlanBuilder;
};

/// Intermediate result of plan execution: a relation keyed by variable
/// names with one probability per (distinct) row.
struct PlanRelation {
  std::vector<std::string> vars;
  std::vector<Tuple> rows;
  std::vector<double> probs;
};

/// Executes `plan` against `db`. For a Boolean plan (no output variables)
/// the result has one row with the final probability (or no rows: 0).
/// Scans with constants probe an index, served from `exec`'s index cache
/// when it carries one.
Result<PlanRelation> ExecutePlan(const PlanPtr& plan, const Database& db,
                                 ExecContext* exec = nullptr);

/// Executes a Boolean plan and returns the single probability.
Result<double> ExecuteBooleanPlan(const PlanPtr& plan, const Database& db,
                                  ExecContext* exec = nullptr);

}  // namespace pdb

#endif  // PDB_PLANS_PLAN_H_
