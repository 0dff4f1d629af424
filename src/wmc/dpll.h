/// \file dpll.h
/// \brief DPLL-style exact weighted model counting (paper §7).
///
/// Full backtracking search in the style of Cachet/sharpSAT: Shannon
/// expansion (rule 11), formula caching (hash-consing makes equal
/// subformulas identical node ids), and connected-component decomposition
/// (rule 12) of conjunctions and disjunctions: a node whose children fall
/// into variable-disjoint groups is counted group by group, a conjunction
/// as the product and a disjunction folded as
/// W_A·Z_B + (Z_A − W_A)·W_B (a + (1 − a)·b for probabilities; see
/// util/independent_or.h), the lineage-level twin of the lifted rules'
/// independent join and independent union. The search trace can be
/// recorded through a `DpllTraceSink`, which — per Huang & Darwiche —
/// yields a decision-DNNF (see kc/trace_compiler.h); a decision-DNNF has
/// no independent-or node, so disjunctions do not split while a sink is
/// attached.
///
/// Weighted counts are computed relative to the variable set of each
/// subformula; variables eliminated by simplification are re-introduced as
/// (w + w̄) factors, so general (even negative) weights are supported.

#ifndef PDB_WMC_DPLL_H_
#define PDB_WMC_DPLL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "boolean/formula.h"
#include "exec/context.h"
#include "util/union_find.h"
#include "wmc/weights.h"
#include "wmc/wmc_cache.h"

namespace pdb {

/// Receives the search trace of a DPLL run; implemented by the knowledge
/// compiler (kc/trace_compiler.h) to build a decision-DNNF.
class DpllTraceSink {
 public:
  /// Opaque reference to a trace node.
  using Ref = uint64_t;

  virtual ~DpllTraceSink() = default;
  virtual Ref TrueNode() = 0;
  virtual Ref FalseNode() = 0;
  /// A Shannon expansion on `var`: lo is the false branch, hi the true one.
  virtual Ref Decision(VarId var, Ref lo, Ref hi) = 0;
  /// A component split: conjunction of variable-disjoint children.
  virtual Ref AndNode(const std::vector<Ref>& children) = 0;
};

/// Variable selection strategies for the Shannon expansion.
enum class DpllHeuristic {
  kLowestVar,        ///< smallest VarId first (a static order)
  kMostOccurrences,  ///< variable occurring in most DAG nodes first
};

/// Options for a DPLL run.
struct DpllOptions {
  /// Split conjunctions, and disjunctions while no trace sink is attached,
  /// into variable-disjoint components.
  bool use_components = true;
  DpllHeuristic heuristic = DpllHeuristic::kMostOccurrences;
  /// Abort with ResourceExhausted after this many Shannon expansions.
  uint64_t max_decisions = UINT64_MAX;
  /// Optional trace sink; may be null. While one is attached, only
  /// conjunctions split into components, so the trace is a decision-DNNF.
  DpllTraceSink* trace = nullptr;
  /// Optional execution context; may be null. The counter polls its
  /// deadline/cancel signal every few decisions and aborts with
  /// DeadlineExceeded (resp. ResourceExhausted) so hard instances degrade
  /// gracefully to sampling instead of hanging; on success it feeds the
  /// context's cache-hit counter.
  ExecContext* exec = nullptr;
  /// Optional session-owned cross-query cache (wmc/wmc_cache.h), probed
  /// after the counter's local cache. A run probes until it has
  /// missed `DpllCounter::kSharedMissBudget` times and publishes the
  /// subresults of exactly the nodes it probed. Keys are canonical
  /// structural signatures plus a weight fingerprint, so a hit
  /// short-circuits an *identical* subproblem and the returned count is
  /// bit-identical to recomputing it. The budget keeps the hits that pay:
  /// keys contain VarIds, so a cross-query hit needs the same grounding
  /// prefix, and the shared part is what the search reaches first (a
  /// repeated lineage hits at the root, an answer fan-out's shared core at
  /// the second probe). On lineages that never repeat, every probe past
  /// those is a miss that costs the key hashing and an insert. Ignored
  /// while a trace sink is attached (the trace must actually be built).
  /// The nodes a run probes are the first it enters, so most of them finish
  /// last: concurrent runs share little beyond a repeated root or core, and
  /// a run stopped by its deadline leaves almost nothing for a retry.
  WmcCache* shared_cache = nullptr;
  /// Minimum variables in a subformula before the shared cache is probed;
  /// below this the signature/fingerprint hashing costs more than the
  /// Shannon expansion it would save.
  size_t shared_cache_min_vars = 4;
};

/// Statistics of a DPLL run.
struct DpllStats {
  uint64_t decisions = 0;
  uint64_t cache_hits = 0;
  /// Conjunctions and disjunctions split into variable-disjoint groups.
  uint64_t component_splits = 0;
  /// Probes answered by the session-shared cross-query cache.
  uint64_t shared_hits = 0;
  /// Probes of the shared cache that missed.
  uint64_t shared_misses = 0;
  /// Wall nanoseconds spent probing the shared cache. Timed only while a
  /// QueryTrace is attached to the ExecContext (clock reads are not free);
  /// 0 whenever tracing is off.
  uint64_t shared_probe_ns = 0;
};

/// Exact weighted model counter.
class DpllCounter {
 public:
  /// Shared-cache misses after which a run stops probing (and publishing):
  /// see `DpllOptions::shared_cache`.
  static constexpr uint64_t kSharedMissBudget = 64;

  DpllCounter(FormulaManager* mgr, WeightMap weights, DpllOptions options = {})
      : mgr_(mgr), weights_(std::move(weights)), options_(options) {}

  /// WMC of `root` relative to its own variable set. With probability
  /// weights this is exactly the probability of the formula.
  Result<double> Compute(NodeId root);

  const DpllStats& stats() const { return stats_; }

  /// Trace reference of the most recent Compute (valid when a sink is set).
  DpllTraceSink::Ref root_trace() const { return root_trace_; }

 private:
  struct CacheEntry {
    double value = 0;
    DpllTraceSink::Ref trace = 0;
  };
  /// One slot of the local cache; `filled` once the node's count is known.
  struct CacheSlot {
    CacheEntry entry;
    bool filled = false;
  };

  Result<CacheEntry> Count(NodeId f);
  /// Records `entry` as the count of `f` in the local cache.
  void Store(NodeId f, const CacheEntry& entry);
  /// Shared-cache key for `f`, or nullopt when the shared cache is off,
  /// a trace sink is attached, the run has spent its miss budget, or `f`
  /// is below the probe threshold.
  std::optional<WmcCache::Key> SharedKey(NodeId f);
  VarId ChooseVar(NodeId f);
  /// Partitions the children of the kAnd/kOr node `f` into variable-
  /// disjoint groups, in ascending order of each group's smallest VarId,
  /// members in stored order, and pushes them onto the group stack
  /// (`groups_`, `group_members_`). Returns the number of groups, or 0,
  /// pushing nothing, when the children are connected.
  size_t Components(NodeId f);
  /// Members of group `g` of the group stack.
  std::span<const NodeId> GroupMembers(size_t g) const {
    return {group_members_.data() + groups_[g].first,
            groups_[g].second - groups_[g].first};
  }
  /// Product of (w+w̄) over `vars`: the count of `true` over them.
  double TotalWeight(std::span<const VarId> vars) const;
  /// Product of (w+w̄) over variables in `all` but not in `sub`.
  double FreedVarsFactor(std::span<const VarId> all,
                         std::span<const VarId> sub, VarId decided);

  FormulaManager* mgr_;
  WeightMap weights_;
  DpllOptions options_;
  DpllStats stats_;
  /// The root of the current Compute.
  NodeId root_ = 0;
  /// Local cache, indexed by NodeId. It grows to the manager's size when a
  /// run first stores a count. A root answered by the shared cache is not
  /// recorded, so that run allocates nothing (and computing the same root
  /// again probes the shared cache again).
  std::vector<CacheSlot> cache_;
  DpllTraceSink::Ref root_trace_ = 0;
  // Per-variable scratch, indexed by VarId, sized on first use (a run
  // answered by the shared cache at its root needs neither) and restored
  // between uses: ChooseVar's occurrence counts (all 0) and Components'
  // first child containing each variable (all kNoChild).
  static constexpr uint32_t kNoChild = UINT32_MAX;
  std::vector<uint32_t> occurrences_;
  std::vector<uint32_t> first_child_;
  // Components' per-call scratch over the node's children, reused.
  UnionFind child_sets_;
  std::vector<uint32_t> group_of_rep_;
  // The group stack: each split pushes its groups as [begin, end) ranges
  // of `group_members_` and pops them once all are counted, so a nested
  // split's groups sit above its ancestors'.
  std::vector<std::pair<uint32_t, uint32_t>> groups_;
  std::vector<NodeId> group_members_;
};

}  // namespace pdb

#endif  // PDB_WMC_DPLL_H_
