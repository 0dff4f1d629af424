/// \file bounds.h
/// \brief Oblivious upper and lower bounds from query plans (Theorem 6.1).
///
/// Every plan's value upper-bounds p_D(Q); running a plan on the dissociated
/// database — each tuple probability replaced by 1 - (1-p)^{1/k}, k the
/// tuple's occurrence count in the lineage DNF — lower-bounds it:
///
///     Plan_{D1} <= p_D(Q) <= Plan_D.
///
/// `ComputePlanBounds` evaluates all elimination-order plans and returns the
/// tightest pair (min of uppers, max of lowers), plus the safe-plan value
/// when the query is hierarchical.

#ifndef PDB_PLANS_BOUNDS_H_
#define PDB_PLANS_BOUNDS_H_

#include <optional>

#include "plans/enumerate.h"
#include "plans/plan.h"

namespace pdb {

struct DnfLineage;

/// The dissociated database D1 for a query whose DNF lineage over `db` is
/// `dnf` (`BuildUcqDnf`): every tuple probability p becomes
/// 1 - (1-p)^{1/k}, where k is the number of the DNF's terms the tuple's
/// variable occurs in. Tuples outside the lineage, and tuples in one term
/// only, keep their probability; only the relations that change are
/// cloned.
Result<Database> DissociateForLowerBound(const DnfLineage& dnf,
                                         const Database& db);

/// Result of the bound computation.
struct PlanBounds {
  double lower = 0.0;
  double upper = 1.0;
  size_t num_plans = 0;
  /// Value of the safe plan when one exists (then lower == upper == exact).
  std::optional<double> safe_value;
};

/// Evaluates all plans (bounded enumeration) to produce the tightest
/// oblivious bounds for a self-join-free Boolean CQ. The plans run with
/// `exec` (see `ExecutePlan`). The lower bound's dissociation reads
/// `lineage`, the CQ's DNF lineage over `db`, when the caller has grounded
/// it already; otherwise the CQ is grounded here through `BuildUcqDnf`
/// with `exec`.
Result<PlanBounds> ComputePlanBounds(const ConjunctiveQuery& cq,
                                     const Database& db, size_t max_vars = 7,
                                     ExecContext* exec = nullptr,
                                     const DnfLineage* lineage = nullptr);

}  // namespace pdb

#endif  // PDB_PLANS_BOUNDS_H_
