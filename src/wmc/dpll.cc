#include "wmc/dpll.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"
#include "util/independent_or.h"
#include "util/string_util.h"

namespace pdb {

namespace {

#ifdef PDB_ASSERTIONS
/// The component invariant: groups must partition the node's children into
/// pairwise variable-disjoint sets.
bool GroupsAreVarDisjoint(FormulaManager* mgr,
                          const std::vector<std::span<const NodeId>>& groups) {
  std::vector<VarId> all;
  for (const auto& members : groups) {
    for (NodeId m : members) {
      std::span<const VarId> vars = mgr->VarsOf(m);
      all.insert(all.end(), vars.begin(), vars.end());
    }
  }
  // Within a group members may share variables; across groups they must
  // not, so every variable's occurrences must stay inside one group.
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  size_t covered = 0;
  for (const auto& members : groups) {
    std::vector<VarId> group_vars;
    for (NodeId m : members) {
      std::span<const VarId> vars = mgr->VarsOf(m);
      group_vars.insert(group_vars.end(), vars.begin(), vars.end());
    }
    std::sort(group_vars.begin(), group_vars.end());
    group_vars.erase(std::unique(group_vars.begin(), group_vars.end()),
                     group_vars.end());
    covered += group_vars.size();
  }
  return covered == all.size();
}
#endif

}  // namespace

Result<double> DpllCounter::Compute(NodeId root) {
  if (options_.exec && options_.exec->ShouldStop()) {
    return options_.exec->cancelled()
               ? Status::ResourceExhausted("DPLL cancelled before start")
               : Status::DeadlineExceeded("deadline expired before DPLL");
  }
  root_ = root;
  groups_.clear();  // a run stopped early leaves its splits' groups
  group_members_.clear();
  auto entry = Count(root);
  if (options_.exec) {
    options_.exec->Add(ExecCounter::kCacheHits, stats_.cache_hits);
    options_.exec->Add(ExecCounter::kDpllDecisions, stats_.decisions);
    options_.exec->Add(ExecCounter::kDpllComponentSplits,
                       stats_.component_splits);
    options_.exec->Add(ExecCounter::kWmcSharedHits, stats_.shared_hits);
    options_.exec->Add(ExecCounter::kWmcSharedMisses, stats_.shared_misses);
  }
  if (!entry.ok()) return entry.status();
  root_trace_ = entry->trace;
  return entry->value;
}

VarId DpllCounter::ChooseVar(NodeId f) {
  std::span<const VarId> vars = mgr_->VarsOf(f);
  PDB_CHECK(!vars.empty());
  if (options_.heuristic == DpllHeuristic::kLowestVar) return vars[0];
  // kMostOccurrences: the variable contained in the most top-level children,
  // the smallest such VarId on a tie.
  FormulaKind k = mgr_->kind(f);
  if (k != FormulaKind::kAnd && k != FormulaKind::kOr) return vars[0];
  if (occurrences_.empty()) occurrences_.assign(weights_.size(), 0);
  for (NodeId c : mgr_->children(f)) {
    for (VarId v : mgr_->VarsOf(c)) ++occurrences_[v];
  }
  VarId best = vars[0];
  uint32_t best_count = 0;
  for (VarId v : vars) {
    if (occurrences_[v] > best_count) {
      best = v;
      best_count = occurrences_[v];
    }
    occurrences_[v] = 0;
  }
  return best;
}

size_t DpllCounter::Components(NodeId f) {
  auto kids = mgr_->children(f);
  std::span<const VarId> vars = mgr_->VarsOf(f);
  if (first_child_.empty()) first_child_.assign(weights_.size(), kNoChild);
  child_sets_.Reset(kids.size());
  size_t num_groups = kids.size();
  for (size_t i = 0; i < kids.size() && num_groups > 1; ++i) {
    for (VarId v : mgr_->VarsOf(kids[i])) {
      uint32_t& first = first_child_[v];
      if (first == kNoChild) {
        first = static_cast<uint32_t>(i);
      } else if (child_sets_.Union(i, first)) {
        --num_groups;
      }
    }
  }
  if (num_groups > 1) {
    // Canonical component order: ascending smallest VarId. The partition
    // itself is a pure function of the unordered structure, but the
    // union-find representative is a child *index*, which follows the
    // manager-local NodeId order — combining in rep order would make the
    // result's rounding depend on interning history, and cross-manager
    // shared-cache hits would no longer be bit-identical. Components are
    // variable-disjoint, so walking the sorted variables meets each
    // component first at its smallest VarId.
    const size_t first_group = groups_.size();
    group_of_rep_.assign(kids.size(), kNoChild);
    for (VarId v : vars) {
      uint32_t& group = group_of_rep_[child_sets_.Find(first_child_[v])];
      if (group == kNoChild) {
        group = static_cast<uint32_t>(groups_.size());
        groups_.emplace_back(0, 0);
      }
    }
    // Lay the groups out contiguously, members in stored order: count each
    // group's members, then place every child at its group's next slot.
    // A representative's entry already names its own group, so rewriting
    // each child's entry to its group leaves every later lookup intact.
    for (size_t i = 0; i < kids.size(); ++i) {
      const uint32_t group = group_of_rep_[child_sets_.Find(i)];
      group_of_rep_[i] = group;
      ++groups_[group].second;
    }
    uint32_t next = static_cast<uint32_t>(group_members_.size());
    for (size_t g = first_group; g < groups_.size(); ++g) {
      groups_[g].first = next;
      next += groups_[g].second;
      groups_[g].second = groups_[g].first;
    }
    group_members_.resize(next);
    for (size_t i = 0; i < kids.size(); ++i) {
      group_members_[groups_[group_of_rep_[i]].second++] = kids[i];
    }
  }
  for (VarId v : vars) first_child_[v] = kNoChild;
  return num_groups > 1 ? num_groups : 0;
}

double DpllCounter::TotalWeight(std::span<const VarId> vars) const {
  double total = 1.0;
  for (VarId v : vars) total *= weights_[v].sum();
  return total;
}

double DpllCounter::FreedVarsFactor(std::span<const VarId> all,
                                    std::span<const VarId> sub,
                                    VarId decided) {
  double factor = 1.0;
  size_t j = 0;
  for (VarId v : all) {
    while (j < sub.size() && sub[j] < v) ++j;
    bool in_sub = j < sub.size() && sub[j] == v;
    if (!in_sub && v != decided) factor *= weights_[v].sum();
  }
  return factor;
}

Result<DpllCounter::CacheEntry> DpllCounter::Count(NodeId f) {
  DpllTraceSink* sink = options_.trace;
  switch (mgr_->kind(f)) {
    case FormulaKind::kTrue:
      return CacheEntry{1.0, sink ? sink->TrueNode() : 0};
    case FormulaKind::kFalse:
      return CacheEntry{0.0, sink ? sink->FalseNode() : 0};
    case FormulaKind::kVar: {
      VarId v = mgr_->var(f);
      CacheEntry entry{weights_[v].w_true, 0};
      if (sink) {
        entry.trace = sink->Decision(v, sink->FalseNode(), sink->TrueNode());
      }
      return entry;
    }
    default:
      break;
  }
  if (f < cache_.size() && cache_[f].filled) {
    ++stats_.cache_hits;
    return cache_[f].entry;
  }

  CacheEntry result;
  // Negative literal: !x.
  if (mgr_->kind(f) == FormulaKind::kNot &&
      mgr_->kind(mgr_->children(f)[0]) == FormulaKind::kVar) {
    VarId v = mgr_->var(mgr_->children(f)[0]);
    result.value = weights_[v].w_false;
    if (sink) {
      result.trace = sink->Decision(v, sink->TrueNode(), sink->FalseNode());
    }
    Store(f, result);
    return result;
  }

  // Session-shared cross-query cache: probed after the local cache (an
  // array read, no hashing of structure), only for subformulas big enough
  // to amortise the signature/fingerprint cost, and only until the run's
  // miss budget is spent. A hit is an identical
  // subproblem — same unordered structure, same weights — so the cached
  // double is bit-identical to what the search below would compute (the
  // search is canonical in the unordered structure: see the component
  // ordering note).
  std::optional<WmcCache::Key> shared_key = SharedKey(f);
  if (shared_key) {
    // Probe latency is measured only while a trace rides on the context:
    // two clock reads per probe are noise for a postmortem but not for the
    // untraced hot path.
    const bool timed = options_.exec && options_.exec->trace() != nullptr;
    std::chrono::steady_clock::time_point probe_start;
    if (timed) probe_start = std::chrono::steady_clock::now();
    std::optional<double> hit = options_.shared_cache->Lookup(*shared_key);
    if (timed) {
      stats_.shared_probe_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - probe_start)
              .count());
    }
    if (hit) {
      ++stats_.shared_hits;
      result.value = *hit;
      // A hit at the root ends the run; recording it would size the local
      // cache to the whole manager for nothing.
      if (f != root_) Store(f, result);
      return result;
    }
    ++stats_.shared_misses;
  }

  // Component decomposition: a conjunction or a disjunction whose children
  // fall into variable-disjoint groups is counted group by group. A
  // decision-DNNF has no independent-or node, so a disjunction splits only
  // while no trace is recorded.
  const FormulaKind kind = mgr_->kind(f);
  if (options_.use_components &&
      (kind == FormulaKind::kAnd ||
       (kind == FormulaKind::kOr && sink == nullptr))) {
    const size_t first_group = groups_.size();
    const size_t num_groups = Components(f);
    if (num_groups > 0) {
      const size_t end_group = first_group + num_groups;
#ifdef PDB_ASSERTIONS
      std::vector<std::span<const NodeId>> groups;
      for (size_t g = first_group; g < end_group; ++g) {
        groups.push_back(GroupMembers(g));
      }
      PDB_ASSERT(GroupsAreVarDisjoint(mgr_, groups));
#endif
      ++stats_.component_splits;
      if (kind == FormulaKind::kAnd) {
        std::vector<DpllTraceSink::Ref> refs;
        result.value = 1.0;
        for (size_t g = first_group; g < end_group; ++g) {
          PDB_ASSIGN_OR_RETURN(CacheEntry sub,
                               Count(mgr_->And(GroupMembers(g))));
          result.value *= sub.value;
          if (sink) refs.push_back(sub.trace);
        }
        if (sink) result.trace = sink->AndNode(refs);
      } else {
        // Fold WMC(A ∨ B) = W_A·Z_B + (Z_A − W_A)·W_B, where Z is a
        // side's total weight over its variables; `total` is Z of the
        // groups folded so far.
        result.value = 0.0;
        double total = 1.0;
        for (size_t g = first_group; g < end_group; ++g) {
          NodeId component = mgr_->Or(GroupMembers(g));
          PDB_ASSIGN_OR_RETURN(CacheEntry sub, Count(component));
          const double z = TotalWeight(mgr_->VarsOf(component));
          result.value = DisjointOrCount(result.value, total, sub.value, z);
          total *= z;
        }
      }
      // Pop this split's groups; the nested splits have popped theirs.
      group_members_.resize(groups_[first_group].first);
      groups_.resize(first_group);
      Store(f, result);
      if (shared_key) options_.shared_cache->Insert(*shared_key, result.value);
      return result;
    }
  }

  // Shannon expansion.
  if (++stats_.decisions > options_.max_decisions) {
    return Status::ResourceExhausted(
        StrFormat("DPLL exceeded %llu decisions",
                  static_cast<unsigned long long>(options_.max_decisions)));
  }
  // Poll the cooperative stop signal every 64 decisions: cheap relative to
  // a Shannon expansion, prompt enough for millisecond-scale deadlines.
  if (options_.exec && stats_.decisions % 64 == 0 &&
      options_.exec->ShouldStop()) {
    return options_.exec->cancelled()
               ? Status::ResourceExhausted(
                     StrFormat("DPLL cancelled after %llu decisions",
                               static_cast<unsigned long long>(
                                   stats_.decisions)))
               : Status::DeadlineExceeded(
                     StrFormat("DPLL deadline exceeded after %llu decisions",
                               static_cast<unsigned long long>(
                                   stats_.decisions)));
  }
  VarId v = ChooseVar(f);
  // Var sets never move, so this span outlives the cofactors below.
  std::span<const VarId> all_vars = mgr_->VarsOf(f);
  NodeId f0 = mgr_->Cofactor(f, v, false);
  NodeId f1 = mgr_->Cofactor(f, v, true);
  PDB_ASSIGN_OR_RETURN(CacheEntry e0, Count(f0));
  PDB_ASSIGN_OR_RETURN(CacheEntry e1, Count(f1));
  double corr0 = FreedVarsFactor(all_vars, mgr_->VarsOf(f0), v);
  double corr1 = FreedVarsFactor(all_vars, mgr_->VarsOf(f1), v);
  result.value = weights_[v].w_false * e0.value * corr0 +
                 weights_[v].w_true * e1.value * corr1;
  if (sink) result.trace = sink->Decision(v, e0.trace, e1.trace);
  Store(f, result);
  if (shared_key) options_.shared_cache->Insert(*shared_key, result.value);
  return result;
}

void DpllCounter::Store(NodeId f, const CacheEntry& entry) {
  if (f >= cache_.size()) {
    cache_.resize(std::max<size_t>(mgr_->NumNodes(), 2 * cache_.size()));
  }
  cache_[f] = {entry, true};
}

std::optional<WmcCache::Key> DpllCounter::SharedKey(NodeId f) {
  if (options_.shared_cache == nullptr || options_.trace != nullptr ||
      stats_.shared_misses >= kSharedMissBudget) {
    return std::nullopt;
  }
  std::span<const VarId> vars = mgr_->VarsOf(f);
  if (vars.size() < options_.shared_cache_min_vars) return std::nullopt;
  WmcCache::Key key;
  key.sig = mgr_->SignatureOf(f);
  key.weight_fp = WeightFingerprint(vars, weights_);
  return key;
}

}  // namespace pdb
