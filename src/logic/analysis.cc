#include "logic/analysis.h"

#include <algorithm>
#include <string_view>

#include "util/check.h"
#include "util/string_util.h"
#include "util/union_find.h"

namespace pdb {

namespace {

// at(v): indices of atoms containing variable v.
std::map<std::string, std::set<size_t>> AtomsOfVariables(
    const ConjunctiveQuery& cq) {
  std::map<std::string, std::set<size_t>> at;
  for (size_t i = 0; i < cq.atoms().size(); ++i) {
    for (const std::string& v : cq.atoms()[i].Variables()) {
      at[v].insert(i);
    }
  }
  return at;
}

}  // namespace

bool IsHierarchical(const ConjunctiveQuery& cq) {
  auto at = AtomsOfVariables(cq);
  for (auto it1 = at.begin(); it1 != at.end(); ++it1) {
    for (auto it2 = std::next(it1); it2 != at.end(); ++it2) {
      const std::set<size_t>& a = it1->second;
      const std::set<size_t>& b = it2->second;
      bool a_in_b = std::includes(b.begin(), b.end(), a.begin(), a.end());
      bool b_in_a = std::includes(a.begin(), a.end(), b.begin(), b.end());
      if (a_in_b || b_in_a) continue;
      bool disjoint = std::none_of(a.begin(), a.end(), [&](size_t i) {
        return b.count(i) > 0;
      });
      if (!disjoint) return false;
    }
  }
  return true;
}

std::set<std::string> RootVariables(const ConjunctiveQuery& cq) {
  std::set<std::string> roots;
  bool first = true;
  for (const Atom& atom : cq.atoms()) {
    std::set<std::string> vars = atom.Variables();
    if (vars.empty()) continue;  // ground atoms do not constrain roots
    if (first) {
      roots = std::move(vars);
      first = false;
    } else {
      std::set<std::string> inter;
      std::set_intersection(roots.begin(), roots.end(), vars.begin(),
                            vars.end(), std::inserter(inter, inter.begin()));
      roots = std::move(inter);
    }
    if (roots.empty()) break;
  }
  return first ? std::set<std::string>{} : roots;
}

std::vector<ConjunctiveQuery> VariableConnectedComponents(
    const ConjunctiveQuery& cq) {
  const auto& atoms = cq.atoms();
  UnionFind uf(atoms.size());
  std::map<std::string, size_t> first_atom_of_var;
  for (size_t i = 0; i < atoms.size(); ++i) {
    for (const std::string& v : atoms[i].Variables()) {
      auto [it, inserted] = first_atom_of_var.emplace(v, i);
      if (!inserted) uf.Union(i, it->second);
    }
  }
  std::map<size_t, std::vector<Atom>> groups;
  std::vector<size_t> order;  // first-seen order of group representatives
  for (size_t i = 0; i < atoms.size(); ++i) {
    size_t root = uf.Find(i);
    if (groups.find(root) == groups.end()) order.push_back(root);
    groups[root].push_back(atoms[i]);
  }
  std::vector<ConjunctiveQuery> out;
  out.reserve(order.size());
  for (size_t root : order) {
    out.push_back(ConjunctiveQuery(std::move(groups[root])));
  }
  return out;
}

std::vector<std::vector<size_t>> GroupBySharedSymbols(
    const std::vector<std::set<std::string>>& symbol_sets) {
  UnionFind uf(symbol_sets.size());
  std::map<std::string, size_t> first_of_symbol;
  for (size_t i = 0; i < symbol_sets.size(); ++i) {
    for (const std::string& s : symbol_sets[i]) {
      auto [it, inserted] = first_of_symbol.emplace(s, i);
      if (!inserted) uf.Union(i, it->second);
    }
  }
  std::map<size_t, std::vector<size_t>> groups;
  std::vector<size_t> order;
  for (size_t i = 0; i < symbol_sets.size(); ++i) {
    size_t root = uf.Find(i);
    if (groups.find(root) == groups.end()) order.push_back(root);
    groups[root].push_back(i);
  }
  std::vector<std::vector<size_t>> out;
  out.reserve(order.size());
  for (size_t root : order) out.push_back(std::move(groups[root]));
  return out;
}

namespace {

// Checks one root-variable choice (roots[i] for disjunct i): every R-atom in
// every disjunct must carry its disjunct's root at one common position j_R.
bool SeparatorChoiceWorks(const Ucq& ucq,
                          const std::vector<std::string>& roots) {
  // For every relation symbol, collect the candidate positions and prune.
  std::map<std::string, std::set<size_t>> candidate_positions;
  for (size_t d = 0; d < ucq.size(); ++d) {
    for (const Atom& atom : ucq.disjuncts()[d].atoms()) {
      std::set<size_t> positions;
      for (size_t j = 0; j < atom.args.size(); ++j) {
        const Term& t = atom.args[j];
        if (t.is_variable() && t.var() == roots[d]) positions.insert(j);
      }
      if (positions.empty()) return false;  // root missing from an atom
      auto [it, inserted] =
          candidate_positions.emplace(atom.predicate, positions);
      if (!inserted) {
        std::set<size_t> inter;
        std::set_intersection(it->second.begin(), it->second.end(),
                              positions.begin(), positions.end(),
                              std::inserter(inter, inter.begin()));
        if (inter.empty()) return false;
        it->second = std::move(inter);
      }
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<std::string>> FindSeparator(const Ucq& ucq) {
  if (ucq.empty()) return std::nullopt;
  // Candidate roots per disjunct.
  std::vector<std::vector<std::string>> candidates;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    std::set<std::string> roots = RootVariables(cq);
    // Every atom (including ground ones) must contain the root, so a
    // disjunct with a ground atom cannot have a separator.
    for (const Atom& atom : cq.atoms()) {
      if (atom.Variables().empty()) return std::nullopt;
    }
    if (roots.empty()) return std::nullopt;
    candidates.emplace_back(roots.begin(), roots.end());
  }
  // Enumerate combinations (capped; real queries have tiny root sets).
  size_t total = 1;
  for (const auto& c : candidates) {
    total *= c.size();
    if (total > 10000) return std::nullopt;
  }
  for (size_t combo = 0; combo < total; ++combo) {
    std::vector<std::string> roots;
    size_t rest = combo;
    for (size_t d = 0; d < candidates.size(); ++d) {
      roots.push_back(candidates[d][rest % candidates[d].size()]);
      rest /= candidates[d].size();
    }
    if (SeparatorChoiceWorks(ucq, roots)) return roots;
  }
  return std::nullopt;
}

namespace {

void CollectPolarities(const FoPtr& f, bool negated,
                       std::map<std::string, Polarity>* out) {
  switch (f->kind()) {
    case FoKind::kTrue:
    case FoKind::kFalse:
      return;
    case FoKind::kAtom: {
      Polarity& p = (*out)[f->atom().predicate];
      (negated ? p.negative : p.positive) = true;
      return;
    }
    case FoKind::kNot:
      CollectPolarities(f->children()[0], !negated, out);
      return;
    default:
      for (const FoPtr& c : f->children()) {
        CollectPolarities(c, negated, out);
      }
  }
}

}  // namespace

std::map<std::string, Polarity> PredicatePolarities(const FoPtr& f) {
  std::map<std::string, Polarity> out;
  CollectPolarities(f, /*negated=*/false, &out);
  return out;
}

bool IsUnate(const FoPtr& f) {
  for (const auto& [pred, pol] : PredicatePolarities(f)) {
    if (pol.positive && pol.negative) return false;
  }
  return true;
}

namespace {

bool ContainsKind(const FoPtr& f, FoKind kind) {
  if (f->kind() == kind) return true;
  for (const FoPtr& c : f->children()) {
    if (ContainsKind(c, kind)) return true;
  }
  return false;
}

}  // namespace

bool IsExistentialSentence(const FoPtr& f) {
  return !ContainsKind(ToNnf(f), FoKind::kForall);
}

bool IsUniversalSentence(const FoPtr& f) {
  return !ContainsKind(ToNnf(f), FoKind::kExists);
}

constexpr std::string_view kComplementSuffix = "__c";

std::string ComplementSymbol(const std::string& name) {
  return name + std::string(kComplementSuffix);
}

bool IsComplementSymbol(const std::string& name) {
  return name.size() > kComplementSuffix.size() &&
         name.ends_with(kComplementSuffix);
}

Result<Relation> ComplementRelation(const Relation& rel,
                                    const std::vector<Value>& domain,
                                    size_t max_tuples) {
  const size_t arity = rel.arity();
  // Per-position candidate values: domain values whose type matches the
  // attribute type (other combinations could never join with stored data).
  std::vector<std::vector<Value>> columns(arity);
  for (size_t j = 0; j < arity; ++j) {
    for (const Value& v : domain) {
      if (v.type() == rel.schema().attribute(j).type) columns[j].push_back(v);
    }
  }
  size_t total = 1;
  for (const auto& col : columns) {
    if (col.empty()) total = 0;
    if (total > 0 && col.size() > max_tuples / total) {
      return Status::ResourceExhausted(
          StrFormat("complement of '%s' over the active domain exceeds %zu "
                    "tuples",
                    rel.name().c_str(), max_tuples));
    }
    total *= col.size();
  }
  Relation out(ComplementSymbol(rel.name()), rel.schema());
  for (size_t count = 0; count < total; ++count) {
    Tuple tuple;
    tuple.reserve(arity);
    size_t rest = count;
    for (size_t j = 0; j < arity; ++j) {
      tuple.push_back(columns[j][rest % columns[j].size()]);
      rest /= columns[j].size();
    }
    double p = 1.0 - rel.ProbOf(tuple);
    PDB_RETURN_NOT_OK(out.AddTuple(std::move(tuple), p));
  }
  return out;
}

namespace {

// Replaces each negative literal !R(t...) with the positive complement atom
// R__c(t...). `f` must be in NNF.
FoPtr ReplaceNegativeLiterals(const FoPtr& f) {
  switch (f->kind()) {
    case FoKind::kTrue:
    case FoKind::kFalse:
    case FoKind::kAtom:
      return f;
    case FoKind::kNot: {
      const FoPtr& inner = f->children()[0];
      PDB_CHECK(inner->kind() == FoKind::kAtom);  // NNF guarantees literal
      Atom atom = inner->atom();
      atom.predicate = ComplementSymbol(atom.predicate);
      return Fo::MakeAtom(std::move(atom));
    }
    case FoKind::kAnd:
    case FoKind::kOr: {
      std::vector<FoPtr> kids;
      kids.reserve(f->children().size());
      for (const FoPtr& c : f->children()) {
        kids.push_back(ReplaceNegativeLiterals(c));
      }
      return f->kind() == FoKind::kAnd ? Fo::And(std::move(kids))
                                       : Fo::Or(std::move(kids));
    }
    case FoKind::kExists:
      return Fo::Exists(f->quantified_var(),
                        ReplaceNegativeLiterals(f->children()[0]));
    case FoKind::kForall:
      return Fo::Forall(f->quantified_var(),
                        ReplaceNegativeLiterals(f->children()[0]));
  }
  return f;
}

}  // namespace

Result<UnateRewrite> RewriteUnateForUcq(const FoPtr& sentence,
                                        const Database& db,
                                        size_t max_complement_tuples) {
  if (!sentence->FreeVariables().empty()) {
    return Status::InvalidArgument("expected a sentence, found free variables");
  }
  FoPtr nnf = ToNnf(sentence);
  if (!IsUnate(nnf)) {
    return Status::Unsupported(
        "sentence is not unate: some predicate occurs both positively and "
        "negatively");
  }
  UnateRewrite rewrite;
  bool has_forall = ContainsKind(nnf, FoKind::kForall);
  bool has_exists = ContainsKind(nnf, FoKind::kExists);
  if (has_forall && has_exists) {
    return Status::Unsupported(
        "sentence mixes forall and exists; only pure prefixes are supported "
        "(Theorem 4.1 scope)");
  }
  if (has_forall) {
    nnf = ToNnf(Fo::Not(nnf));
    rewrite.complemented = true;
  }
  FoPtr positive = ReplaceNegativeLiterals(nnf);
  PDB_ASSIGN_OR_RETURN(rewrite.ucq, FoToUcq(positive));

  // Extend the database with complement relations for every complemented
  // symbol that the UCQ actually uses. The copy shares db's relations
  // (copy-on-write), and the active domain scan runs only when a
  // complement is materialized.
  rewrite.database = db;
  std::optional<std::vector<Value>> domain;
  for (const std::string& pred : rewrite.ucq.Predicates()) {
    if (rewrite.database.HasRelation(pred)) continue;
    // pred must be a complement symbol R__c of an existing relation R.
    if (!IsComplementSymbol(pred)) {
      return Status::NotFound(
          StrFormat("query references unknown relation '%s'", pred.c_str()));
    }
    std::string base = pred.substr(0, pred.size() - kComplementSuffix.size());
    PDB_ASSIGN_OR_RETURN(const Relation* rel, rewrite.database.Get(base));
    if (!domain.has_value()) domain = db.ActiveDomain();
    PDB_ASSIGN_OR_RETURN(
        Relation complement,
        ComplementRelation(*rel, *domain, max_complement_tuples));
    PDB_RETURN_NOT_OK(rewrite.database.AddRelation(std::move(complement)));
  }
  return rewrite;
}

}  // namespace pdb
