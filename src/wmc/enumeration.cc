#include "wmc/enumeration.h"

#include <algorithm>

#include "util/string_util.h"

namespace pdb {

namespace {

Status CheckVarCount(size_t n, size_t limit) {
  if (n > limit) {
    return Status::ResourceExhausted(
        StrFormat("enumeration over %zu variables exceeds the limit of %zu",
                  n, limit));
  }
  return Status::OK();
}

size_t AssignmentSize(std::span<const VarId> vars) {
  size_t max_var = 0;
  for (VarId v : vars) max_var = std::max<size_t>(max_var, v);
  return vars.empty() ? 0 : max_var + 1;
}

}  // namespace

Result<double> EnumerateProbability(FormulaManager* mgr, NodeId root,
                                    const std::vector<double>& probs) {
  std::span<const VarId> vars = mgr->VarsOf(root);
  PDB_RETURN_NOT_OK(CheckVarCount(vars.size(), kMaxEnumerationVars));
  double total = 0.0;
  std::vector<bool> assignment(AssignmentSize(vars), false);
  const uint64_t combos = 1ULL << vars.size();
  for (uint64_t mask = 0; mask < combos; ++mask) {
    double weight = 1.0;
    for (size_t i = 0; i < vars.size(); ++i) {
      bool value = (mask >> i) & 1;
      assignment[vars[i]] = value;
      weight *= value ? probs[vars[i]] : 1.0 - probs[vars[i]];
    }
    if (weight != 0.0 && mgr->Evaluate(root, assignment)) total += weight;
  }
  return total;
}

Result<double> EnumerateWmc(FormulaManager* mgr, NodeId root,
                            const WeightMap& weights) {
  std::span<const VarId> vars = mgr->VarsOf(root);
  PDB_RETURN_NOT_OK(CheckVarCount(vars.size(), kMaxEnumerationVars));
  double total = 0.0;
  std::vector<bool> assignment(AssignmentSize(vars), false);
  const uint64_t combos = 1ULL << vars.size();
  for (uint64_t mask = 0; mask < combos; ++mask) {
    double weight = 1.0;
    for (size_t i = 0; i < vars.size(); ++i) {
      bool value = (mask >> i) & 1;
      assignment[vars[i]] = value;
      weight *= value ? weights[vars[i]].w_true : weights[vars[i]].w_false;
    }
    if (mgr->Evaluate(root, assignment)) total += weight;
  }
  return total;
}

Result<BigRational> EnumerateProbabilityExact(
    FormulaManager* mgr, NodeId root, const std::vector<double>& probs) {
  return EnumerateWmcExact(mgr, root,
                           RationalWeightsFromProbabilities(probs));
}

Result<BigRational> EnumerateWmcExact(FormulaManager* mgr, NodeId root,
                                      const RationalWeightMap& weights) {
  std::span<const VarId> vars = mgr->VarsOf(root);
  PDB_RETURN_NOT_OK(CheckVarCount(vars.size(), kMaxExactEnumerationVars));
  BigRational total;
  std::vector<bool> assignment(AssignmentSize(vars), false);
  const uint64_t combos = 1ULL << vars.size();
  for (uint64_t mask = 0; mask < combos; ++mask) {
    for (size_t i = 0; i < vars.size(); ++i) {
      assignment[vars[i]] = (mask >> i) & 1;
    }
    if (!mgr->Evaluate(root, assignment)) continue;
    BigRational weight(1);
    for (size_t i = 0; i < vars.size(); ++i) {
      weight *= assignment[vars[i]] ? weights[vars[i]].w_true
                                    : weights[vars[i]].w_false;
    }
    total += weight;
  }
  return total;
}

Result<BigInt> CountModels(FormulaManager* mgr, NodeId root) {
  std::span<const VarId> vars = mgr->VarsOf(root);
  PDB_RETURN_NOT_OK(CheckVarCount(vars.size(), kMaxEnumerationVars));
  BigInt count;
  std::vector<bool> assignment(AssignmentSize(vars), false);
  const uint64_t combos = 1ULL << vars.size();
  for (uint64_t mask = 0; mask < combos; ++mask) {
    for (size_t i = 0; i < vars.size(); ++i) {
      assignment[vars[i]] = (mask >> i) & 1;
    }
    if (mgr->Evaluate(root, assignment)) count += BigInt(1);
  }
  return count;
}

}  // namespace pdb
