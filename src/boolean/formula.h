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

#ifndef PDB_BOOLEAN_FORMULA_H_
#define PDB_BOOLEAN_FORMULA_H_

#include <cstdint>
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
  /// n-ary conjunction (simplifying).
  NodeId And(std::vector<NodeId> children);
  NodeId And(NodeId a, NodeId b) { return And(std::vector<NodeId>{a, b}); }
  /// n-ary disjunction (simplifying).
  NodeId Or(std::vector<NodeId> children);
  NodeId Or(NodeId a, NodeId b) { return Or(std::vector<NodeId>{a, b}); }

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

  /// Sorted distinct variables of the subformula rooted at `f` (cached).
  const std::vector<VarId>& VarsOf(NodeId f);

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
  void ClearCofactorCache() { cofactor_cache_.clear(); }

  std::string ToString(NodeId f) const;

 private:
  struct Node {
    FormulaKind kind;
    VarId var = 0;
    uint32_t child_begin = 0;
    uint32_t child_count = 0;
  };

  struct NodeKey {
    FormulaKind kind;
    VarId var;
    std::vector<NodeId> children;
    bool operator==(const NodeKey& other) const {
      return kind == other.kind && var == other.var &&
             children == other.children;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& key) const;
  };

  NodeId Intern(FormulaKind kind, VarId var, std::vector<NodeId> children);

  std::vector<Node> nodes_;
  std::vector<NodeId> child_arena_;
  std::unordered_map<NodeKey, NodeId, NodeKeyHash> unique_;
  std::unordered_map<NodeId, std::vector<VarId>> vars_cache_;
  std::unordered_map<NodeId, FormulaSignature> signature_cache_;
  struct CofKey {
    NodeId f;
    VarId var;
    bool value;
    bool operator==(const CofKey& o) const {
      return f == o.f && var == o.var && value == o.value;
    }
  };
  struct CofKeyHash {
    size_t operator()(const CofKey& k) const;
  };
  std::unordered_map<CofKey, NodeId, CofKeyHash> cofactor_cache_;
};

}  // namespace pdb

#endif  // PDB_BOOLEAN_FORMULA_H_
