#include "wmc/dpll.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"
#include "util/union_find.h"

namespace pdb {

namespace {

#ifdef PDB_ASSERTIONS
/// The component invariant: groups must partition the conjunction's
/// children into pairwise variable-disjoint sets.
bool GroupsAreVarDisjoint(FormulaManager* mgr,
                          const std::vector<std::vector<NodeId>>& groups) {
  std::vector<VarId> all;
  for (const auto& members : groups) {
    for (NodeId m : members) {
      const std::vector<VarId>& vars = mgr->VarsOf(m);
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
      const std::vector<VarId>& vars = mgr->VarsOf(m);
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
  const std::vector<VarId>& vars = mgr_->VarsOf(f);
  PDB_CHECK(!vars.empty());
  if (options_.heuristic == DpllHeuristic::kLowestVar) return vars[0];
  // kMostOccurrences: the variable contained in the most top-level children.
  FormulaKind k = mgr_->kind(f);
  if (k != FormulaKind::kAnd && k != FormulaKind::kOr) return vars[0];
  std::map<VarId, size_t> counts;
  for (NodeId c : mgr_->children(f)) {
    for (VarId v : mgr_->VarsOf(c)) ++counts[v];
  }
  VarId best = vars[0];
  size_t best_count = 0;
  for (const auto& [v, n] : counts) {
    if (n > best_count) {
      best = v;
      best_count = n;
    }
  }
  return best;
}

double DpllCounter::FreedVarsFactor(const std::vector<VarId>& all,
                                    const std::vector<VarId>& sub,
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
  auto it = cache_.find(f);
  if (it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
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
    cache_.emplace(f, result);
    return result;
  }

  // Session-shared cross-query cache: probed after the local NodeId cache
  // (which is a plain hash lookup, no hashing of structure), only for
  // subformulas big enough to amortise the signature/fingerprint cost, and
  // only until the run's miss budget is spent. A hit is an identical
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
      cache_.emplace(f, result);
      return result;
    }
    ++stats_.shared_misses;
  }

  // Connected-component decomposition of conjunctions.
  if (options_.use_components && mgr_->kind(f) == FormulaKind::kAnd) {
    auto kids = mgr_->children(f);
    UnionFind uf(kids.size());
    std::map<VarId, size_t> first_child_of_var;
    for (size_t i = 0; i < kids.size(); ++i) {
      for (VarId v : mgr_->VarsOf(kids[i])) {
        auto [pos, inserted] = first_child_of_var.emplace(v, i);
        if (!inserted) uf.Union(i, pos->second);
      }
    }
    std::map<size_t, std::vector<NodeId>> by_rep;
    for (size_t i = 0; i < kids.size(); ++i) {
      by_rep[uf.Find(i)].push_back(kids[i]);
    }
    if (by_rep.size() > 1) {
      // Canonical component order: ascending smallest VarId. The partition
      // itself is a pure function of the unordered structure, but the
      // union-find representative is a child *index*, which follows the
      // manager-local NodeId order — multiplying in rep order would make
      // the product's rounding depend on interning history, and cross-
      // manager shared-cache hits would no longer be bit-identical.
      // Components are variable-disjoint, so their smallest VarIds are
      // distinct and give a canonical total order.
      std::vector<std::pair<VarId, std::vector<NodeId>>> tagged;
      tagged.reserve(by_rep.size());
      for (auto& [rep, members] : by_rep) {
        VarId min_var = mgr_->VarsOf(members[0]).front();
        for (NodeId m : members) {
          min_var = std::min(min_var, mgr_->VarsOf(m).front());
        }
        tagged.emplace_back(min_var, std::move(members));
      }
      std::sort(tagged.begin(), tagged.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<std::vector<NodeId>> groups;
      groups.reserve(tagged.size());
      for (auto& [min_var, members] : tagged) {
        groups.push_back(std::move(members));
      }
      PDB_ASSERT(GroupsAreVarDisjoint(mgr_, groups));
      ++stats_.component_splits;
      double product = 1.0;
      std::vector<DpllTraceSink::Ref> refs;
      for (const auto& members : groups) {
        NodeId component = mgr_->And(members);
        PDB_ASSIGN_OR_RETURN(CacheEntry sub, Count(component));
        product *= sub.value;
        if (sink) refs.push_back(sub.trace);
      }
      result.value = product;
      if (sink) result.trace = sink->AndNode(refs);
      cache_.emplace(f, result);
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
  const std::vector<VarId> all_vars = mgr_->VarsOf(f);  // copy: map may grow
  NodeId f0 = mgr_->Cofactor(f, v, false);
  NodeId f1 = mgr_->Cofactor(f, v, true);
  PDB_ASSIGN_OR_RETURN(CacheEntry e0, Count(f0));
  PDB_ASSIGN_OR_RETURN(CacheEntry e1, Count(f1));
  double corr0 = FreedVarsFactor(all_vars, mgr_->VarsOf(f0), v);
  double corr1 = FreedVarsFactor(all_vars, mgr_->VarsOf(f1), v);
  result.value = weights_[v].w_false * e0.value * corr0 +
                 weights_[v].w_true * e1.value * corr1;
  if (sink) result.trace = sink->Decision(v, e0.trace, e1.trace);
  cache_.emplace(f, result);
  if (shared_key) options_.shared_cache->Insert(*shared_key, result.value);
  return result;
}

std::optional<WmcCache::Key> DpllCounter::SharedKey(NodeId f) {
  if (options_.shared_cache == nullptr || options_.trace != nullptr ||
      stats_.shared_misses >= kSharedMissBudget) {
    return std::nullopt;
  }
  const std::vector<VarId>& vars = mgr_->VarsOf(f);
  if (vars.size() < options_.shared_cache_min_vars) return std::nullopt;
  WmcCache::Key key;
  key.sig = mgr_->SignatureOf(f);
  key.weight_fp = WeightFingerprint(vars, weights_);
  return key;
}

}  // namespace pdb
