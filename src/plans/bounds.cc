#include "plans/bounds.h"

#include <cmath>
#include <map>

#include "boolean/lineage.h"
#include "logic/analysis.h"

namespace pdb {

Result<Database> DissociateForLowerBound(const ConjunctiveQuery& cq,
                                         const Database& db) {
  // Occurrence counts k per (relation, row) across the lineage DNF.
  std::map<std::pair<std::string, size_t>, size_t> counts;
  PDB_RETURN_NOT_OK(EnumerateCqMatches(cq, db, [&](const CqMatch& match) {
    // A tuple matched by several atoms of one term still occurs once in
    // that term; deduplicate within the match.
    std::map<std::pair<std::string, size_t>, bool> seen;
    for (const LineageVar& lv : match.atom_rows) {
      seen[{lv.relation, lv.row}] = true;
    }
    for (const auto& [key, unused] : seen) ++counts[key];
  }));
  Database dissociated = db;
  for (const auto& [key, k] : counts) {
    if (k <= 1) continue;
    PDB_ASSIGN_OR_RETURN(Relation * rel,
                         dissociated.GetMutable(key.first));
    double p = rel->prob(key.second);
    rel->set_prob(key.second,
                  1.0 - std::pow(1.0 - p, 1.0 / static_cast<double>(k)));
  }
  return dissociated;
}

Result<PlanBounds> ComputePlanBounds(const ConjunctiveQuery& cq,
                                     const Database& db, size_t max_vars,
                                     ExecContext* exec) {
  PDB_ASSIGN_OR_RETURN(std::vector<PlanPtr> plans,
                       EnumerateAllPlans(cq, max_vars));
  PDB_ASSIGN_OR_RETURN(Database dissociated, DissociateForLowerBound(cq, db));
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
