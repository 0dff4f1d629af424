#include "boolean/formula.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace pdb {

namespace {

/// The var set of the terminals: empty, but not null (null means "not yet
/// computed").
constexpr VarId kNoVars[1] = {0};

/// splitmix64 finalizer: the avalanche step of the signatures and of the
/// unique table's and the cofactor memo's hashes.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The unique table's hash of a node's structure: one multiply per child,
/// one finalizer for the whole key.
uint32_t StructureHash(FormulaKind kind, VarId var,
                       std::span<const NodeId> children) {
  uint64_t h = (static_cast<uint64_t>(kind) << 32) | var;
  for (NodeId c : children) h = (h ^ c) * 0xff51afd7ed558ccdULL;
  return static_cast<uint32_t>(Mix64(h ^ children.size()));
}

}  // namespace

FormulaManager::FormulaManager() {
  nodes_.push_back({FormulaKind::kFalse, 0, 0, 0, 0, 0, kNoVars});
  nodes_.push_back({FormulaKind::kTrue, 0, 0, 0, 0, 0, kNoVars});
}

std::span<const NodeId> FormulaManager::children(NodeId f) const {
  const Node& n = nodes_[f];
  return {child_arena_.data() + n.child_begin, n.child_count};
}

NodeId FormulaManager::Intern(FormulaKind kind, VarId var,
                              std::span<const NodeId> children) {
  const uint32_t hash = StructureHash(kind, var, children);
  size_t mask = table_.size() - 1;
  if (!table_.empty()) {
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const NodeId id = table_[i];
      if (id == False()) break;
      const Node& n = nodes_[id];
      if (n.hash == hash && n.kind == kind && n.var == var &&
          n.child_count == children.size() &&
          std::equal(children.begin(), children.end(),
                     child_arena_.begin() + n.child_begin)) {
        return id;
      }
    }
  }
  // Interned nodes are nodes_ minus the two terminals; keep the table at
  // most half full.
  if (2 * (nodes_.size() - 1) > table_.size()) {
    GrowTable();
    mask = table_.size() - 1;
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.kind = kind;
  node.var = var;
  node.child_begin = static_cast<uint32_t>(child_arena_.size());
  node.child_count = static_cast<uint32_t>(children.size());
  node.hash = hash;
  child_arena_.insert(child_arena_.end(), children.begin(), children.end());
  nodes_.push_back(node);
  size_t i = hash & mask;
  while (table_[i] != False()) i = (i + 1) & mask;
  table_[i] = id;
  return id;
}

void FormulaManager::GrowTable() {
  std::vector<NodeId> grown(table_.empty() ? 32 : 2 * table_.size(),
                            False());
  const size_t mask = grown.size() - 1;
  for (NodeId id : table_) {
    if (id == False()) continue;
    size_t i = nodes_[id].hash & mask;
    while (grown[i] != False()) i = (i + 1) & mask;
    grown[i] = id;
  }
  table_ = std::move(grown);
}

NodeId FormulaManager::Var(VarId var) {
  return Intern(FormulaKind::kVar, var, {});
}

NodeId FormulaManager::Not(NodeId f) {
  switch (kind(f)) {
    case FormulaKind::kFalse:
      return True();
    case FormulaKind::kTrue:
      return False();
    case FormulaKind::kNot:
      return children(f)[0];
    default:
      return Intern(FormulaKind::kNot, 0, std::span<const NodeId>(&f, 1));
  }
}

NodeId FormulaManager::Junction(FormulaKind k, std::span<const NodeId> in) {
  // And: True is the identity and False absorbs; Or the other way round.
  const NodeId identity = k == FormulaKind::kAnd ? True() : False();
  const NodeId absorbing = k == FormulaKind::kAnd ? False() : True();
  std::vector<NodeId>& flat = flat_;
  flat.clear();
  for (NodeId c : in) {
    if (c == identity) continue;
    if (c == absorbing) return absorbing;
    if (kind(c) == k) {
      auto kids = children(c);
      flat.insert(flat.end(), kids.begin(), kids.end());
    } else {
      flat.push_back(c);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  // x & !x -> false, x | !x -> true.
  for (NodeId c : flat) {
    if (kind(c) == FormulaKind::kNot &&
        std::binary_search(flat.begin(), flat.end(), children(c)[0])) {
      return absorbing;
    }
  }
  if (flat.empty()) return identity;
  if (flat.size() == 1) return flat[0];
  return Intern(k, 0, flat);
}

VarId* FormulaManager::AllocateVars(size_t n) {
  if (n > var_block_left_) {
    // Blocks grow with use, so a small manager holds a small block, and a
    // set larger than a block gets a block of its own size.
    const size_t size = std::max(n, next_var_block_size_);
    next_var_block_size_ = std::min<size_t>(2 * next_var_block_size_, 1 << 16);
    var_blocks_.push_back(std::make_unique<VarId[]>(size));
    var_block_next_ = var_blocks_.back().get();
    var_block_left_ = size;
  }
  VarId* out = var_block_next_;
  var_block_next_ += n;
  var_block_left_ -= n;
  return out;
}

std::span<const VarId> FormulaManager::ComputeVarsOf(NodeId f) {
  const VarId* vars = nullptr;
  size_t num_vars = 0;
  switch (kind(f)) {
    case FormulaKind::kVar: {
      VarId* out = AllocateVars(1);
      out[0] = var(f);
      vars = out;
      num_vars = 1;
      break;
    }
    case FormulaKind::kNot: {
      // A negation shares its operand's set.
      std::span<const VarId> sub = VarsOf(children(f)[0]);
      vars = sub.data();
      num_vars = sub.size();
      break;
    }
    default: {
      // Children first: computing their sets reuses the scratch below, and
      // creates no node, so children(f) stays valid.
      VarId max_var = 0;
      for (NodeId c : children(f)) {
        std::span<const VarId> sub = VarsOf(c);
        if (!sub.empty()) max_var = std::max(max_var, sub.back());
      }
      if (var_marks_.size() <= max_var) var_marks_.resize(max_var + 1, 0);
      if (++mark_epoch_ == 0) {  // wrapped: no stale mark may equal it
        std::fill(var_marks_.begin(), var_marks_.end(), 0);
        mark_epoch_ = 1;
      }
      var_scratch_.clear();
      size_t largest = 0;
      const VarId* largest_vars = nullptr;
      for (NodeId c : children(f)) {
        std::span<const VarId> sub = VarsOf(c);
        if (sub.size() > largest) {
          largest = sub.size();
          largest_vars = sub.data();
        }
        for (VarId v : sub) {
          if (var_marks_[v] != mark_epoch_) {
            var_marks_[v] = mark_epoch_;
            var_scratch_.push_back(v);
          }
        }
      }
      num_vars = var_scratch_.size();
      if (largest == num_vars) {
        // One child already covers the union: share its set.
        vars = largest_vars;
      } else {
        std::sort(var_scratch_.begin(), var_scratch_.end());
        VarId* out = AllocateVars(num_vars);
        std::copy(var_scratch_.begin(), var_scratch_.end(), out);
        vars = out;
      }
    }
  }
  Node& n = nodes_[f];
  n.vars = vars;
  n.num_vars = static_cast<uint32_t>(num_vars);
  return {vars, num_vars};
}

namespace {

// Distinct per-kind tags so e.g. Not(x) and And({x}) can never alias (the
// manager's simplifier avoids most of these shapes anyway, but the
// signature must not rely on that).
constexpr uint64_t kSigFalseHi = 0x8fb3c5a1d2e4f607ULL;
constexpr uint64_t kSigFalseLo = 0x1c9e7b5a3f8d2460ULL;
constexpr uint64_t kSigTrueHi = 0x4a6d8e0f2b4c6d8eULL;
constexpr uint64_t kSigTrueLo = 0xd5f7192b3d5f7193ULL;
constexpr uint64_t kSigVarHi = 0x9d3f5b7192b3d5f7ULL;
constexpr uint64_t kSigVarLo = 0x28e0f2b4c6d8e0f2ULL;
constexpr uint64_t kSigNotHi = 0x6b8d0f2143658799ULL;
constexpr uint64_t kSigNotLo = 0xfedcba9876543210ULL;
constexpr uint64_t kSigAndHi = 0x0123456789abcdefULL;
constexpr uint64_t kSigAndLo = 0xb7e151628aed2a6bULL;
constexpr uint64_t kSigOrHi = 0x243f6a8885a308d3ULL;
constexpr uint64_t kSigOrLo = 0x13198a2e03707344ULL;

}  // namespace

FormulaSignature FormulaManager::SignatureOf(NodeId f) {
  switch (kind(f)) {
    case FormulaKind::kFalse:
      return {kSigFalseHi, kSigFalseLo};
    case FormulaKind::kTrue:
      return {kSigTrueHi, kSigTrueLo};
    case FormulaKind::kVar:
      // Two independent streams over the VarId: the hi/lo halves stay
      // uncorrelated, giving genuine 128-bit collision resistance.
      return {Mix64(kSigVarHi ^ (var(f) * 0xff51afd7ed558ccdULL)),
              Mix64(kSigVarLo + var(f))};
    default:
      break;
  }
  auto it = signature_cache_.find(f);
  if (it != signature_cache_.end()) return it->second;
  FormulaSignature sig;
  if (kind(f) == FormulaKind::kNot) {
    FormulaSignature child = SignatureOf(children(f)[0]);
    sig = {Mix64(kSigNotHi ^ child.hi), Mix64(kSigNotLo + child.lo)};
  } else {
    // AND/OR: child signatures are combined in *signature* order, not
    // stored order — stored order is sorted by manager-local NodeId, which
    // differs between managers that interned the same formulas in a
    // different sequence. Sorting by signature makes the combine canonical
    // (ties are exact duplicates, for which order is immaterial).
    auto cs = children(f);
    std::vector<FormulaSignature> kids;
    kids.reserve(cs.size());
    for (NodeId c : cs) kids.push_back(SignatureOf(c));
    std::sort(kids.begin(), kids.end());
    bool is_and = kind(f) == FormulaKind::kAnd;
    sig.hi = is_and ? kSigAndHi : kSigOrHi;
    sig.lo = is_and ? kSigAndLo : kSigOrLo;
    for (const FormulaSignature& k : kids) {
      sig.hi = Mix64(sig.hi ^ (k.hi + 0x9e3779b97f4a7c15ULL));
      sig.lo = Mix64(sig.lo + (k.lo ^ 0xc2b2ae3d27d4eb4fULL));
    }
    sig.hi = Mix64(sig.hi + cs.size());
    sig.lo = Mix64(sig.lo ^ (cs.size() * 0x9e3779b97f4a7c15ULL));
  }
  signature_cache_.emplace(f, sig);
  return sig;
}

bool FormulaManager::Evaluate(NodeId f,
                              const std::vector<bool>& assignment) const {
  switch (kind(f)) {
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kVar:
      return var(f) < assignment.size() && assignment[var(f)];
    case FormulaKind::kNot:
      return !Evaluate(children(f)[0], assignment);
    case FormulaKind::kAnd:
      for (NodeId c : children(f)) {
        if (!Evaluate(c, assignment)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (NodeId c : children(f)) {
        if (Evaluate(c, assignment)) return true;
      }
      return false;
  }
  return false;
}

NodeId FormulaManager::Cofactor(NodeId f, VarId v, bool value) {
  switch (kind(f)) {
    case FormulaKind::kFalse:
    case FormulaKind::kTrue:
      return f;
    case FormulaKind::kVar:
      if (var(f) == v) return value ? True() : False();
      return f;
    default:
      break;
  }
  // Prune using the var set: if v does not occur, f is unchanged.
  std::span<const VarId> vars = VarsOf(f);
  if (!std::binary_search(vars.begin(), vars.end(), v)) return f;
  if (!cofactor_memo_.empty()) {
    const CofactorEntry& memo = CofactorSlot(f, v, value);
    if (memo.f == f) return memo.result;
  }
  NodeId result;
  if (kind(f) == FormulaKind::kNot) {
    result = Not(Cofactor(children(f)[0], v, value));
  } else {
    // Cofactor the children onto the stack above `base`. The recursive
    // calls use the stack above their own entries and can intern nodes,
    // which may move the child arena, so children are read by index.
    const size_t base = cofactor_stack_.size();
    const uint32_t count = nodes_[f].child_count;
    for (uint32_t i = 0; i < count; ++i) {
      const NodeId child = child_arena_[nodes_[f].child_begin + i];
      const NodeId cofactored = Cofactor(child, v, value);
      cofactor_stack_.push_back(cofactored);
    }
    result = Junction(kind(f), std::span<const NodeId>(
                                   cofactor_stack_.data() + base, count));
    cofactor_stack_.resize(base);
  }
  // Insert, keeping the memo at most half full. The recursion above may
  // have moved it, so the slot is found afresh.
  if (2 * (cofactor_count_ + 1) > cofactor_memo_.size()) {
    std::vector<CofactorEntry> old(
        cofactor_memo_.empty() ? 32 : 2 * cofactor_memo_.size());
    old.swap(cofactor_memo_);
    for (const CofactorEntry& e : old) {
      if (e.f != False()) CofactorSlot(e.f, e.var, e.value) = e;
    }
  }
  CofactorSlot(f, v, value) = {f, v, result, value};
  ++cofactor_count_;
  return result;
}

FormulaManager::CofactorEntry& FormulaManager::CofactorSlot(NodeId f,
                                                            VarId var,
                                                            bool value) {
  const size_t mask = cofactor_memo_.size() - 1;
  const uint64_t key =
      (static_cast<uint64_t>(f) << 33) ^ (static_cast<uint64_t>(var) << 1) ^
      static_cast<uint64_t>(value);
  for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
    CofactorEntry& e = cofactor_memo_[i];
    if (e.f == False() || (e.f == f && e.var == var && e.value == value)) {
      return e;
    }
  }
}

size_t FormulaManager::CountReachable(NodeId f) const {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> stack{f};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    for (NodeId c : children(cur)) stack.push_back(c);
  }
  return seen.size();
}

std::string FormulaManager::ToString(NodeId f) const {
  switch (kind(f)) {
    case FormulaKind::kFalse:
      return "false";
    case FormulaKind::kTrue:
      return "true";
    case FormulaKind::kVar:
      return "x" + std::to_string(var(f));
    case FormulaKind::kNot:
      return "!" + ToString(children(f)[0]);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      const char* sep = kind(f) == FormulaKind::kAnd ? " & " : " | ";
      std::string out = "(";
      auto cs = children(f);
      for (size_t i = 0; i < cs.size(); ++i) {
        if (i > 0) out += sep;
        out += ToString(cs[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace pdb
