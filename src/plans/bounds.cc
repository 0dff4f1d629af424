#include "plans/bounds.h"

#include <cmath>

#include "boolean/lineage.h"
#include "logic/analysis.h"

namespace pdb {

Result<Database> DissociateForLowerBound(const DnfLineage& dnf,
                                         const Database& db) {
  // Occurrence count k per variable across the DNF's terms. A term lists
  // a tuple once, however many atoms of its match the tuple filled.
  std::vector<size_t> counts(dnf.vars.size(), 0);
  for (const std::vector<VarId>& term : dnf.terms) {
    for (VarId v : term) ++counts[v];
  }
  Database dissociated = db;
  for (VarId v = 0; v < counts.size(); ++v) {
    if (counts[v] <= 1) continue;
    const LineageVar& tuple = dnf.vars[v];
    PDB_ASSIGN_OR_RETURN(Relation * rel,
                         dissociated.GetMutable(tuple.relation));
    // 1 − (1 − p)^{1/k}, without rounding 1 − p away for small p.
    rel->set_prob(tuple.row,
                  -std::expm1(std::log1p(-dnf.probs[v]) /
                              static_cast<double>(counts[v])));
  }
  return dissociated;
}

Result<PlanBounds> ComputePlanBounds(const ConjunctiveQuery& cq,
                                     const Database& db, size_t max_vars,
                                     ExecContext* exec,
                                     const DnfLineage* lineage) {
  PDB_ASSIGN_OR_RETURN(std::vector<PlanPtr> plans,
                       EnumerateAllPlans(cq, max_vars));
  DnfLineage grounded;
  if (lineage == nullptr) {
    GroundingOptions grounding;
    grounding.exec = exec;
    PDB_ASSIGN_OR_RETURN(grounded, BuildUcqDnf(Ucq({cq}), db, grounding));
    lineage = &grounded;
  }
  PDB_ASSIGN_OR_RETURN(Database dissociated,
                       DissociateForLowerBound(*lineage, db));
  PlanBounds bounds;
  bounds.num_plans = plans.size();
  bounds.lower = 0.0;
  bounds.upper = 1.0;
  for (const PlanPtr& plan : plans) {
    PDB_ASSIGN_OR_RETURN(double upper, ExecuteBooleanPlan(plan, db, exec));
    PDB_ASSIGN_OR_RETURN(double lower,
                         ExecuteBooleanPlan(plan, dissociated, exec));
    bounds.upper = std::min(bounds.upper, upper);
    bounds.lower = std::max(bounds.lower, lower);
  }
  if (IsHierarchical(cq)) {
    PDB_ASSIGN_OR_RETURN(PlanPtr safe, BuildSafePlan(cq));
    PDB_ASSIGN_OR_RETURN(double value, ExecuteBooleanPlan(safe, db, exec));
    bounds.safe_value = value;
  }
  return bounds;
}

}  // namespace pdb
