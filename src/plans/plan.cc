#include "plans/plan.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "exec/context.h"
#include "storage/index_cache.h"
#include "util/check.h"
#include "util/independent_or.h"
#include "util/string_util.h"

namespace pdb {

struct PlanBuilder {
  static std::shared_ptr<PlanNode> Make() {
    return std::shared_ptr<PlanNode>(new PlanNode());
  }
};

PlanPtr PlanNode::Scan(Atom atom) {
  auto node = PlanBuilder::Make();
  node->kind_ = PlanKind::kScan;
  std::set<std::string> vars = atom.Variables();
  node->output_vars_.assign(vars.begin(), vars.end());
  node->atom_ = std::move(atom);
  return node;
}

PlanPtr PlanNode::Join(PlanPtr left, PlanPtr right) {
  auto node = PlanBuilder::Make();
  node->kind_ = PlanKind::kJoin;
  std::set<std::string> vars(left->output_vars().begin(),
                             left->output_vars().end());
  vars.insert(right->output_vars().begin(), right->output_vars().end());
  node->output_vars_.assign(vars.begin(), vars.end());
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

PlanPtr PlanNode::Project(PlanPtr child, std::vector<std::string> keep) {
  auto node = PlanBuilder::Make();
  node->kind_ = PlanKind::kProject;
  std::sort(keep.begin(), keep.end());
  keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
  for (const std::string& v : keep) {
    PDB_CHECK(std::find(child->output_vars().begin(),
                        child->output_vars().end(),
                        v) != child->output_vars().end());
  }
  node->output_vars_ = keep;
  node->keep_ = std::move(keep);
  node->left_ = std::move(child);
  return node;
}

std::string PlanNode::ToString() const {
  switch (kind_) {
    case PlanKind::kScan:
      return "Scan(" + atom_.ToString() + ")";
    case PlanKind::kJoin:
      return "Join(" + left_->ToString() + ", " + right_->ToString() + ")";
    case PlanKind::kProject: {
      std::string keep = StrJoin(keep_, ",");
      return "Project{" + keep + "}(" + left_->ToString() + ")";
    }
  }
  return "?";
}

namespace {

Result<PlanRelation> ExecuteScan(const PlanNode& plan, const Database& db,
                                 ExecContext* exec) {
  const Atom& atom = plan.atom();
  PDB_ASSIGN_OR_RETURN(const Relation* rel, db.Get(atom.predicate));
  if (rel->arity() != atom.arity()) {
    return Status::InvalidArgument(
        StrFormat("scan of %s: arity mismatch (relation has %zu columns)",
                  atom.ToString().c_str(), rel->arity()));
  }
  // Constants select through an index probe; a repeated variable must
  // agree with its first occurrence.
  std::vector<size_t> key_cols;
  Tuple key;
  std::map<std::string, size_t> first_pos;
  std::vector<std::pair<size_t, size_t>> repeats;  // (position, first)
  for (size_t j = 0; j < atom.args.size(); ++j) {
    const Term& t = atom.args[j];
    if (t.is_constant()) {
      key_cols.push_back(j);
      key.push_back(t.constant());
    } else if (auto [it, inserted] = first_pos.emplace(t.var(), j);
               !inserted) {
      repeats.emplace_back(j, it->second);
    }
  }
  PlanRelation out;
  out.vars = plan.output_vars();
  std::vector<size_t> var_pos;
  for (const std::string& v : out.vars) var_pos.push_back(first_pos.at(v));
  IndexCache* cache = exec != nullptr ? exec->index_cache() : nullptr;
  for (uint32_t row : MatchingRows(*rel, key_cols, key, cache, exec)) {
    const Tuple& tuple = rel->tuple(row);
    bool match = true;
    for (const auto& [j, f] : repeats) match = match && tuple[j] == tuple[f];
    if (!match) continue;
    Tuple out_row;
    out_row.reserve(var_pos.size());
    for (size_t j : var_pos) out_row.push_back(tuple[j]);
    out.rows.push_back(std::move(out_row));
    out.probs.push_back(rel->prob(row));
  }
  return out;
}

Result<PlanRelation> ExecuteJoin(const PlanRelation& left,
                                 const PlanRelation& right) {
  // Shared variables and their column positions.
  std::vector<std::pair<size_t, size_t>> shared;  // (left col, right col)
  std::vector<size_t> right_extra;                // right columns not shared
  for (size_t j = 0; j < right.vars.size(); ++j) {
    auto it = std::find(left.vars.begin(), left.vars.end(), right.vars[j]);
    if (it != left.vars.end()) {
      shared.emplace_back(it - left.vars.begin(), j);
    } else {
      right_extra.push_back(j);
    }
  }
  PlanRelation out;
  out.vars = left.vars;
  for (size_t j : right_extra) out.vars.push_back(right.vars[j]);
  // Hash the right side on the shared key.
  std::unordered_map<Tuple, std::vector<size_t>> hash;
  for (size_t r = 0; r < right.rows.size(); ++r) {
    Tuple key;
    key.reserve(shared.size());
    for (const auto& [lc, rc] : shared) key.push_back(right.rows[r][rc]);
    hash[std::move(key)].push_back(r);
  }
  for (size_t l = 0; l < left.rows.size(); ++l) {
    Tuple key;
    key.reserve(shared.size());
    for (const auto& [lc, rc] : shared) key.push_back(left.rows[l][lc]);
    auto it = hash.find(key);
    if (it == hash.end()) continue;
    for (size_t r : it->second) {
      Tuple row = left.rows[l];
      for (size_t j : right_extra) row.push_back(right.rows[r][j]);
      out.rows.push_back(std::move(row));
      out.probs.push_back(left.probs[l] * right.probs[r]);
    }
  }
  // The output variable list must be sorted to match PlanNode::output_vars;
  // reorder columns accordingly.
  std::vector<std::string> sorted_vars = out.vars;
  std::sort(sorted_vars.begin(), sorted_vars.end());
  if (sorted_vars != out.vars) {
    std::vector<size_t> perm;
    perm.reserve(sorted_vars.size());
    for (const std::string& v : sorted_vars) {
      perm.push_back(std::find(out.vars.begin(), out.vars.end(), v) -
                     out.vars.begin());
    }
    for (Tuple& row : out.rows) {
      Tuple reordered;
      reordered.reserve(perm.size());
      for (size_t j : perm) reordered.push_back(row[j]);
      row = std::move(reordered);
    }
    out.vars = std::move(sorted_vars);
  }
  return out;
}

PlanRelation ExecuteProject(const PlanRelation& child,
                            const std::vector<std::string>& keep) {
  PlanRelation out;
  out.vars = keep;
  std::vector<size_t> cols;
  cols.reserve(keep.size());
  for (const std::string& v : keep) {
    cols.push_back(std::find(child.vars.begin(), child.vars.end(), v) -
                   child.vars.begin());
  }
  std::unordered_map<Tuple, size_t> groups;
  for (size_t r = 0; r < child.rows.size(); ++r) {
    Tuple key;
    key.reserve(cols.size());
    for (size_t j : cols) key.push_back(child.rows[r][j]);
    auto [it, inserted] = groups.emplace(std::move(key), out.rows.size());
    if (inserted) {
      out.rows.push_back(Tuple());
      out.rows.back().reserve(cols.size());
      for (size_t j : cols) out.rows.back().push_back(child.rows[r][j]);
      out.probs.push_back(child.probs[r]);
    } else {
      double& p = out.probs[it->second];
      p = IndependentOr(p, child.probs[r]);  // u ⊕ v
    }
  }
  return out;
}

}  // namespace

Result<PlanRelation> ExecutePlan(const PlanPtr& plan, const Database& db,
                                 ExecContext* exec) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return ExecuteScan(*plan, db, exec);
    case PlanKind::kJoin: {
      PDB_ASSIGN_OR_RETURN(PlanRelation left,
                           ExecutePlan(plan->left(), db, exec));
      PDB_ASSIGN_OR_RETURN(PlanRelation right,
                           ExecutePlan(plan->right(), db, exec));
      return ExecuteJoin(left, right);
    }
    case PlanKind::kProject: {
      PDB_ASSIGN_OR_RETURN(PlanRelation child,
                           ExecutePlan(plan->child(), db, exec));
      return ExecuteProject(child, plan->keep());
    }
  }
  return Status::Internal("unreachable plan kind");
}

Result<double> ExecuteBooleanPlan(const PlanPtr& plan, const Database& db,
                                  ExecContext* exec) {
  if (!plan->output_vars().empty()) {
    return Status::InvalidArgument(
        "plan has output variables; wrap it in Project{} for a Boolean "
        "result");
  }
  PDB_ASSIGN_OR_RETURN(PlanRelation result, ExecutePlan(plan, db, exec));
  if (result.rows.empty()) return 0.0;
  PDB_CHECK(result.rows.size() == 1);
  return result.probs[0];
}

}  // namespace pdb
