/// \file formula.h
/// \brief Hash-consed Boolean formula DAGs.
///
/// Lineages of queries (paper §7 and appendix) are Boolean formulas over one
/// variable per database tuple. The manager hash-conses nodes — structural
/// equality is pointer equality — which gives the DPLL counter's formula
/// cache (paper §7, "caching") and keeps lineages deduplicated.
///
/// Construction applies cheap local simplifications: constant folding,
/// flattening of nested AND/OR, deduplication and sorting of children,
/// double-negation elimination, and complementary-literal annihilation.
///
/// Storage is flat and reused, so the DPLL search's per-node work (intern,
/// cofactor, read a variable set) allocates nothing once it is warm: nodes
/// and their children live in two arrays, the unique table is an
/// open-addressing table of NodeIds compared against the child array, each
/// node's variable set is computed once into blocks that never move,
/// `And`/`Or`/`Cofactor` build their child lists in reused buffers, and the
/// cofactor memo is an open-addressing table as well.

#ifndef PDB_BOOLEAN_FORMULA_H_
#define PDB_BOOLEAN_FORMULA_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace pdb {

/// Index of a formula node within its manager.
using NodeId = uint32_t;
/// Index of a Boolean variable.
using VarId = uint32_t;

/// 128-bit canonical structural signature of a subformula. Two nodes — in
/// the same manager or in different ones — receive the same signature iff
/// they are structurally equal as *unordered* formulas over the same VarIds:
/// AND/OR child signatures are sorted before combining, so the signature is
/// independent of the manager-local NodeId order in which children happen to
/// be stored. This is what makes signatures stable across the per-query
/// managers, and hence usable as cross-manager cache keys
/// (wmc/wmc_cache.h).
struct FormulaSignature {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const FormulaSignature& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator<(const FormulaSignature& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
};

enum class FormulaKind : uint8_t {
  kFalse,
  kTrue,
  kVar,
  kNot,
  kAnd,
  kOr,
};

/// Owns and hash-conses Boolean formula nodes.
class FormulaManager {
 public:
  FormulaManager();

  NodeId False() const { return 0; }
  NodeId True() const { return 1; }
  /// The node for variable `var`.
  NodeId Var(VarId var);
  /// Negation (simplifying).
  NodeId Not(NodeId f);
  /// n-ary conjunction (simplifying). `children` may be a span of this
  /// manager's own storage, such as `children(g)`.
  NodeId And(std::span<const NodeId> children) {
    return Junction(FormulaKind::kAnd, children);
  }
  NodeId And(std::initializer_list<NodeId> children) {
    return And(std::span<const NodeId>(children.begin(), children.size()));
  }
  NodeId And(NodeId a, NodeId b) { return And({a, b}); }
  /// n-ary disjunction (simplifying); `children` as for And.
  NodeId Or(std::span<const NodeId> children) {
    return Junction(FormulaKind::kOr, children);
  }
  NodeId Or(std::initializer_list<NodeId> children) {
    return Or(std::span<const NodeId>(children.begin(), children.size()));
  }
  NodeId Or(NodeId a, NodeId b) { return Or({a, b}); }

  FormulaKind kind(NodeId f) const { return nodes_[f].kind; }
  /// Variable of a kVar node.
  VarId var(NodeId f) const { return nodes_[f].var; }
  /// Children of a kNot/kAnd/kOr node.
  std::span<const NodeId> children(NodeId f) const;

  bool is_const(NodeId f) const { return f <= 1; }
  bool is_literal(NodeId f) const {
    return kind(f) == FormulaKind::kVar ||
           (kind(f) == FormulaKind::kNot &&
            kind(children(f)[0]) == FormulaKind::kVar);
  }

  /// Sorted distinct variables of the subformula rooted at `f`, computed on
  /// the first call for `f` and then read in O(1). The span stays valid for
  /// the manager's lifetime: nodes created later never move it.
  std::span<const VarId> VarsOf(NodeId f) {
    const Node& n = nodes_[f];
    if (n.vars == nullptr) return ComputeVarsOf(f);
    return {n.vars, n.num_vars};
  }

  /// Canonical structural signature of the subformula rooted at `f`
  /// (memoized per node). See FormulaSignature for the stability guarantee.
  FormulaSignature SignatureOf(NodeId f);

  /// Truth value under `assignment` (indexed by VarId; variables beyond the
  /// vector are false).
  bool Evaluate(NodeId f, const std::vector<bool>& assignment) const;

  /// f with variable `var` fixed to `value`, simplified. Memoized across
  /// calls; see ClearCofactorCache().
  NodeId Cofactor(NodeId f, VarId var, bool value);

  /// Number of distinct nodes created so far (including terminals).
  size_t NumNodes() const { return nodes_.size(); }

  /// Number of DAG nodes reachable from `f`.
  size_t CountReachable(NodeId f) const;

  /// Releases the cofactor memo table (the unique tables stay).
  void ClearCofactorCache() {
    std::vector<CofactorEntry>().swap(cofactor_memo_);
    cofactor_count_ = 0;
  }

  std::string ToString(NodeId f) const;

 private:
  struct Node {
    FormulaKind kind;
    VarId var = 0;
    uint32_t child_begin = 0;
    uint32_t child_count = 0;
    /// Hash of (kind, var, children): the unique table's probe key.
    uint32_t hash = 0;
    /// Sorted variable set, or null until VarsOf first asks for it.
    uint32_t num_vars = 0;
    const VarId* vars = nullptr;
  };

  /// The simplifying n-ary constructor behind And (kAnd) and Or (kOr).
  NodeId Junction(FormulaKind kind, std::span<const NodeId> in);
  /// The node with this structure, created if it does not exist yet.
  NodeId Intern(FormulaKind kind, VarId var, std::span<const NodeId> children);
  /// Doubles the unique table (or creates it) and re-inserts every node.
  void GrowTable();
  /// VarsOf's first call for `f`: computes the set and records it in the
  /// node.
  std::span<const VarId> ComputeVarsOf(NodeId f);
  /// `n` VarIds of var-set storage that never moves.
  VarId* AllocateVars(size_t n);

  std::vector<Node> nodes_;
  std::vector<NodeId> child_arena_;
  /// Unique table: open addressing with linear probing over NodeIds, a
  /// power-of-two size at most half full; node 0 (False) marks an empty
  /// slot, since the terminals are never interned.
  std::vector<NodeId> table_;
  /// Var-set blocks; each is filled front to back and never reallocated.
  std::vector<std::unique_ptr<VarId[]>> var_blocks_;
  VarId* var_block_next_ = nullptr;
  size_t var_block_left_ = 0;
  size_t next_var_block_size_ = 64;
  /// ComputeVarsOf's scratch: per-VarId marks (a variable is in the union
  /// being built iff its mark equals `mark_epoch_`) and the union itself.
  std::vector<uint32_t> var_marks_;
  uint32_t mark_epoch_ = 0;
  std::vector<VarId> var_scratch_;
  /// Junction's flattened children and Cofactor's stack of cofactored
  /// children (each call uses the part above the stack's size on entry).
  std::vector<NodeId> flat_;
  std::vector<NodeId> cofactor_stack_;
  std::unordered_map<NodeId, FormulaSignature> signature_cache_;
  /// Cofactor memo: (f, var, value) -> result, open addressing with
  /// linear probing, a power-of-two size at most half full; f = 0 (False)
  /// marks an empty slot, since constants never reach the memo.
  struct CofactorEntry {
    NodeId f = 0;
    VarId var = 0;
    NodeId result = 0;
    bool value = false;
  };
  /// The memo slot of (f, var, value): its entry, or the empty slot where
  /// it belongs. The memo must not be empty.
  CofactorEntry& CofactorSlot(NodeId f, VarId var, bool value);
  std::vector<CofactorEntry> cofactor_memo_;
  size_t cofactor_count_ = 0;
};

}  // namespace pdb

#endif  // PDB_BOOLEAN_FORMULA_H_
