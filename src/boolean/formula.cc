#include "boolean/formula.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"
#include "util/hash.h"

namespace pdb {

size_t FormulaManager::NodeKeyHash::operator()(const NodeKey& key) const {
  size_t seed = HashValues(static_cast<int>(key.kind), key.var);
  for (NodeId c : key.children) seed = HashCombine(seed, c);
  return seed;
}

size_t FormulaManager::CofKeyHash::operator()(const CofKey& k) const {
  return HashValues(k.f, k.var, k.value);
}

FormulaManager::FormulaManager() {
  nodes_.push_back({FormulaKind::kFalse, 0, 0, 0});
  nodes_.push_back({FormulaKind::kTrue, 0, 0, 0});
}

std::span<const NodeId> FormulaManager::children(NodeId f) const {
  const Node& n = nodes_[f];
  return {child_arena_.data() + n.child_begin, n.child_count};
}

NodeId FormulaManager::Intern(FormulaKind kind, VarId var,
                              std::vector<NodeId> children) {
  NodeKey key{kind, var, children};
  auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  Node node;
  node.kind = kind;
  node.var = var;
  node.child_begin = static_cast<uint32_t>(child_arena_.size());
  node.child_count = static_cast<uint32_t>(children.size());
  child_arena_.insert(child_arena_.end(), children.begin(), children.end());
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  unique_.emplace(std::move(key), id);
  return id;
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
      return Intern(FormulaKind::kNot, 0, {f});
  }
}

NodeId FormulaManager::And(std::vector<NodeId> in) {
  std::vector<NodeId> flat;
  for (NodeId c : in) {
    if (kind(c) == FormulaKind::kTrue) continue;
    if (kind(c) == FormulaKind::kFalse) return False();
    if (kind(c) == FormulaKind::kAnd) {
      auto kids = children(c);
      flat.insert(flat.end(), kids.begin(), kids.end());
    } else {
      flat.push_back(c);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  // x & !x -> false.
  for (NodeId c : flat) {
    if (kind(c) == FormulaKind::kNot &&
        std::binary_search(flat.begin(), flat.end(), children(c)[0])) {
      return False();
    }
  }
  if (flat.empty()) return True();
  if (flat.size() == 1) return flat[0];
  return Intern(FormulaKind::kAnd, 0, std::move(flat));
}

NodeId FormulaManager::Or(std::vector<NodeId> in) {
  std::vector<NodeId> flat;
  for (NodeId c : in) {
    if (kind(c) == FormulaKind::kFalse) continue;
    if (kind(c) == FormulaKind::kTrue) return True();
    if (kind(c) == FormulaKind::kOr) {
      auto kids = children(c);
      flat.insert(flat.end(), kids.begin(), kids.end());
    } else {
      flat.push_back(c);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  // x | !x -> true.
  for (NodeId c : flat) {
    if (kind(c) == FormulaKind::kNot &&
        std::binary_search(flat.begin(), flat.end(), children(c)[0])) {
      return True();
    }
  }
  if (flat.empty()) return False();
  if (flat.size() == 1) return flat[0];
  return Intern(FormulaKind::kOr, 0, std::move(flat));
}

const std::vector<VarId>& FormulaManager::VarsOf(NodeId f) {
  auto it = vars_cache_.find(f);
  if (it != vars_cache_.end()) return it->second;
  std::vector<VarId> vars;
  switch (kind(f)) {
    case FormulaKind::kFalse:
    case FormulaKind::kTrue:
      break;
    case FormulaKind::kVar:
      vars.push_back(var(f));
      break;
    default: {
      for (NodeId c : children(f)) {
        const std::vector<VarId>& sub = VarsOf(c);
        std::vector<VarId> merged;
        merged.reserve(vars.size() + sub.size());
        std::set_union(vars.begin(), vars.end(), sub.begin(), sub.end(),
                       std::back_inserter(merged));
        vars = std::move(merged);
      }
    }
  }
  return vars_cache_.emplace(f, std::move(vars)).first->second;
}

namespace {

/// splitmix64 finalizer: the avalanche core all signature mixing runs on.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

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
  const std::vector<VarId>& vars = VarsOf(f);
  if (!std::binary_search(vars.begin(), vars.end(), v)) return f;
  CofKey key{f, v, value};
  auto it = cofactor_cache_.find(key);
  if (it != cofactor_cache_.end()) return it->second;
  NodeId result;
  switch (kind(f)) {
    case FormulaKind::kNot:
      result = Not(Cofactor(children(f)[0], v, value));
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      // Copy the child list: recursive cofactors create nodes, which can
      // reallocate the child arena and invalidate the children() span.
      auto cs = children(f);
      std::vector<NodeId> original(cs.begin(), cs.end());
      std::vector<NodeId> kids;
      kids.reserve(original.size());
      for (NodeId c : original) kids.push_back(Cofactor(c, v, value));
      result = kind(f) == FormulaKind::kAnd ? And(std::move(kids))
                                            : Or(std::move(kids));
      break;
    }
    default:
      result = f;
      break;
  }
  cofactor_cache_.emplace(key, result);
  return result;
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
