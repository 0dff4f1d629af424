#include "lifted/lifted.h"

#include <algorithm>

#include "exec/context.h"
#include "logic/containment.h"
#include "util/check.h"
#include "util/independent_or.h"
#include "util/string_util.h"

namespace pdb {

namespace {

// Largest number of subsets one inclusion–exclusion step expands.
constexpr size_t kMaxIeSubsets = 4096;
// Recursion depth guard.
constexpr size_t kMaxDepth = 256;

// Canonical cache key of a union of CQs: sorted canonical CQ strings.
std::string UnionKey(const std::vector<ConjunctiveQuery>& disjuncts) {
  std::vector<std::string> keys;
  keys.reserve(disjuncts.size());
  for (const ConjunctiveQuery& cq : disjuncts) {
    keys.push_back(CanonicalCqString(cq));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return StrJoin(keys, ";");
}

// Independence signature of a CQ: a relation name for atoms with variables,
// relation+tuple for ground atoms. Distinct ground tuples of one relation
// are independent events, so they must not glue subqueries together.
std::set<std::string> IndependenceSymbols(const ConjunctiveQuery& cq) {
  std::set<std::string> out;
  for (const Atom& atom : cq.atoms()) {
    if (atom.Variables().empty()) {
      std::string key = atom.predicate;
      for (const Term& t : atom.args) {
        key += "\x01";
        key += t.constant().ToString();
      }
      out.insert(std::move(key));
    } else {
      out.insert(atom.predicate);
    }
  }
  return out;
}

// Coarsens ground-tuple signatures back to the bare relation wherever some
// item uses the relation with variables (the variable atom can overlap any
// tuple).
void UnifyGroundSignatures(std::vector<std::set<std::string>>* sets) {
  std::set<std::string> plain;
  for (const auto& set : *sets) {
    for (const std::string& s : set) {
      if (s.find('\x01') == std::string::npos) plain.insert(s);
    }
  }
  for (auto& set : *sets) {
    std::set<std::string> rewritten;
    for (const std::string& s : set) {
      size_t cut = s.find('\x01');
      if (cut != std::string::npos && plain.count(s.substr(0, cut)) > 0) {
        rewritten.insert(s.substr(0, cut));
      } else {
        rewritten.insert(s);
      }
    }
    set = std::move(rewritten);
  }
}

// Merges a conjunction of Boolean CQs into one CQ by renaming variables
// apart (a conjunction of existentially closed sentences equals the
// existential closure of the disjoint-variable conjunction).
ConjunctiveQuery MergeConjunction(
    const std::vector<const ConjunctiveQuery*>& parts) {
  ConjunctiveQuery merged;
  for (size_t i = 0; i < parts.size(); ++i) {
    ConjunctiveQuery renamed =
        parts[i]->RenameVariables(StrFormat("_m%zu", i));
    for (const Atom& atom : renamed.atoms()) merged.AddAtom(atom);
  }
  return merged;
}

// Absorption: drops every item another one makes redundant — in a union
// (`in_union`) an item that implies another, in a conjunction an item
// implied by another — keeping the earlier of an equivalent pair.
std::vector<ConjunctiveQuery> DropImplied(
    std::vector<ConjunctiveQuery> items, bool in_union) {
  // Whether items[i] is redundant next to items[j].
  auto redundant = [&](size_t i, size_t j) {
    return in_union ? CqImplies(items[i], items[j])
                    : CqImplies(items[j], items[i]);
  };
  std::vector<bool> dropped(items.size(), false);
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = 0; j < items.size() && !dropped[i]; ++j) {
      if (i == j || dropped[j]) continue;
      if (redundant(i, j) && (!redundant(j, i) || j < i)) dropped[i] = true;
    }
  }
  std::vector<ConjunctiveQuery> kept;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!dropped[i]) kept.push_back(std::move(items[i]));
  }
  return kept;
}

}  // namespace

void LiftedEngine::Trace(size_t depth, const std::string& message) {
  if (options_.trace == nullptr) return;
  options_.trace->push_back(std::string(2 * depth, ' ') + message);
}

Result<double> LiftedEngine::Compute(const Ucq& ucq) {
  return ComputeUnion(ucq.disjuncts(), 0);
}

Result<ConjunctiveQuery> LiftedEngine::PreprocessCq(
    const ConjunctiveQuery& cq, bool* satisfiable) const {
  *satisfiable = true;
  std::vector<Atom> atoms;
  for (const Atom& atom : cq.atoms()) {
    if (std::find(atoms.begin(), atoms.end(), atom) != atoms.end()) {
      continue;  // duplicate atom
    }
    PDB_ASSIGN_OR_RETURN(const Relation* rel, db_.Get(atom.predicate));
    if (rel->arity() != atom.arity()) {
      return Status::InvalidArgument(
          StrFormat("atom %s arity mismatch with relation '%s'",
                    atom.ToString().c_str(), atom.predicate.c_str()));
    }
    if (rel->empty()) {
      *satisfiable = false;
      return ConjunctiveQuery();
    }
    bool ground = atom.Variables().empty();
    if (ground) {
      Tuple tuple;
      for (const Term& t : atom.args) tuple.push_back(t.constant());
      double p = rel->ProbOf(tuple);
      if (p == 0.0) {
        *satisfiable = false;
        return ConjunctiveQuery();
      }
      if (p == 1.0) continue;  // certainly true: drop the atom
    }
    atoms.push_back(atom);
  }
  return ConjunctiveQuery(std::move(atoms));
}

Result<double> LiftedEngine::ComputeUnion(CqVec raw_disjuncts, size_t depth) {
  if (depth > kMaxDepth) {
    return Status::ResourceExhausted("lifted inference recursion too deep");
  }
  // --- Data-level simplification of each disjunct. ---
  CqVec disjuncts;
  for (const ConjunctiveQuery& cq : raw_disjuncts) {
    bool satisfiable = true;
    PDB_ASSIGN_OR_RETURN(ConjunctiveQuery simplified,
                         PreprocessCq(cq, &satisfiable));
    if (!satisfiable) continue;
    if (simplified.empty()) {
      Trace(depth, "disjunct is certainly true => P = 1");
      return 1.0;
    }
    // Work on the core: the cache key canonicalizes up to minimization, so
    // the computed query must be minimized too (otherwise the recursion on
    // the equivalent core re-enters the same key and looks like a cycle).
    disjuncts.push_back(MinimizeCq(simplified));
  }
  if (disjuncts.empty()) {
    Trace(depth, "no satisfiable disjunct => P = 0");
    return 0.0;
  }

  // --- Logic-level minimization (absorption). ---
  disjuncts = DropImplied(std::move(disjuncts), /*in_union=*/true);

  // --- Cache / cycle detection. ---
  const std::string key = UnionKey(disjuncts);
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  if (!in_progress_.insert(key).second) {
    return Status::Unsupported(
        StrFormat("lifted inference rules do not apply (cyclic "
                  "decomposition at: %s)",
                  key.c_str()));
  }
  struct Cleanup {
    LiftedEngine* engine;
    const std::string& key;
    ~Cleanup() { engine->in_progress_.erase(key); }
  } cleanup{this, key};

  Result<double> result = [&]() -> Result<double> {
    // --- Independent union: symbol-disjoint groups of disjuncts. ---
    std::vector<std::set<std::string>> symbol_sets;
    symbol_sets.reserve(disjuncts.size());
    for (const ConjunctiveQuery& cq : disjuncts) {
      symbol_sets.push_back(IndependenceSymbols(cq));
    }
    UnifyGroundSignatures(&symbol_sets);
    std::vector<std::vector<size_t>> groups =
        GroupBySharedSymbols(symbol_sets);
    if (groups.size() > 1) {
      ++stats_.independent_unions;
      Trace(depth, StrFormat("independent-union over %zu groups",
                             groups.size()));
      double any = 0.0;
      for (const auto& group : groups) {
        CqVec sub;
        for (size_t i : group) sub.push_back(disjuncts[i]);
        PDB_ASSIGN_OR_RETURN(double p, ComputeUnion(std::move(sub), depth + 1));
        any = IndependentOr(any, p);
      }
      return any;
    }

    if (disjuncts.size() == 1) {
      const ConjunctiveQuery& cq = disjuncts[0];
      std::vector<ConjunctiveQuery> components =
          VariableConnectedComponents(cq);
      if (components.size() > 1) {
        // Conjunction of variable-disjoint components; group by symbols.
        std::vector<std::set<std::string>> component_symbols;
        for (const auto& c : components) {
          component_symbols.push_back(IndependenceSymbols(c));
        }
        UnifyGroundSignatures(&component_symbols);
        std::vector<std::vector<size_t>> cgroups =
            GroupBySharedSymbols(component_symbols);
        if (cgroups.size() > 1) {
          ++stats_.independent_products;
          Trace(depth, StrFormat("independent-product over %zu groups",
                                 cgroups.size()));
          double product = 1.0;
          for (const auto& group : cgroups) {
            CqVec conjuncts;
            for (size_t i : group) conjuncts.push_back(components[i]);
            PDB_ASSIGN_OR_RETURN(
                double p, ComputeConjunction(std::move(conjuncts), depth + 1));
            product *= p;
          }
          return product;
        }
        return ComputeConjunction(std::move(components), depth + 1);
      }
      // Single connected CQ.
      if (cq.Variables().empty()) {
        // Ground conjunction of distinct uncertain atoms: independent.
        ++stats_.base_evaluations;
        double product = 1.0;
        for (const Atom& atom : cq.atoms()) {
          Tuple tuple;
          for (const Term& t : atom.args) tuple.push_back(t.constant());
          PDB_ASSIGN_OR_RETURN(const Relation* rel, db_.Get(atom.predicate));
          product *= rel->ProbOf(tuple);
        }
        Trace(depth, StrFormat("ground base case => %g", product));
        return product;
      }
    }

    // --- Separator grounding (also covers the single-CQ case). ---
    Ucq as_ucq(disjuncts);
    if (auto roots = FindSeparator(as_ucq); roots.has_value()) {
      ++stats_.separator_groundings;
      return GroundSeparator(disjuncts, *roots, depth);
    }

    // --- Inclusion-exclusion over the disjuncts. ---
    if (disjuncts.size() > 1 && options_.use_inclusion_exclusion) {
      return InclusionExclusion(disjuncts, /*over_union=*/true, depth);
    }

    return Status::Unsupported(StrFormat(
        "lifted inference rules do not apply to: %s", key.c_str()));
  }();

  if (result.ok()) cache_.emplace(key, *result);
  return result;
}

Result<double> LiftedEngine::ComputeConjunction(CqVec conjuncts,
                                                size_t depth) {
  if (depth > kMaxDepth) {
    return Status::ResourceExhausted("lifted inference recursion too deep");
  }
  // Deduplicate equivalent conjuncts and drop implied ones: if Ci => Cj
  // then Cj is redundant in the conjunction.
  conjuncts = DropImplied(std::move(conjuncts), /*in_union=*/false);
  PDB_CHECK(!conjuncts.empty());
  if (conjuncts.size() == 1) {
    return ComputeUnion(std::move(conjuncts), depth);
  }
  if (!options_.use_inclusion_exclusion) {
    return Status::Unsupported(
        "conjunction of correlated subqueries requires the "
        "inclusion-exclusion rule (disabled)");
  }
  return InclusionExclusion(conjuncts, /*over_union=*/false, depth);
}

Result<double> LiftedEngine::InclusionExclusion(const CqVec& items,
                                                bool over_union,
                                                size_t depth) {
  ++stats_.inclusion_exclusions;
  const size_t m = items.size();
  stats_.ie_max_width = std::max<uint64_t>(stats_.ie_max_width, m);
  if (m > 20 || ((size_t{1} << m) - 1) > kMaxIeSubsets) {
    return Status::ResourceExhausted(
        "inclusion-exclusion expansion too large");
  }
  Trace(depth, over_union
                   ? StrFormat("inclusion-exclusion over %zu disjuncts", m)
                   : StrFormat("dual inclusion-exclusion over %zu conjuncts",
                               m));
  // P(OR_i C_i) = sum_{S != empty} (-1)^{|S|+1} P(AND_{i in S} C_i), each
  // term one merged, minimized CQ; dually P(AND_i C_i) sums P(OR_{i in S}
  // C_i), each term the subset's union. Terms are keyed by their canonical
  // union, so equivalent terms share one coefficient and cancellations are
  // detected.
  std::map<std::string, std::pair<int64_t, CqVec>> terms;
  for (size_t mask = 1; mask < (size_t{1} << m); ++mask) {
    std::vector<const ConjunctiveQuery*> subset;
    for (size_t i = 0; i < m; ++i) {
      if (mask & (size_t{1} << i)) subset.push_back(&items[i]);
    }
    int64_t sign = (subset.size() % 2 == 1) ? 1 : -1;
    CqVec term;
    if (over_union) {
      term.push_back(MinimizeCq(
          subset.size() == 1 ? *subset[0] : MergeConjunction(subset)));
    } else {
      for (const ConjunctiveQuery* cq : subset) term.push_back(*cq);
    }
    std::string term_key = UnionKey(term);
    auto [it, inserted] =
        terms.emplace(term_key, std::make_pair(sign, std::move(term)));
    if (!inserted) it->second.first += sign;
  }
  double total = 0.0;
  for (const auto& [term_key, coef_term] : terms) {
    ++stats_.ie_terms_total;
    if (coef_term.first == 0) {
      ++stats_.ie_terms_cancelled;
      Trace(depth + 1, "term cancelled: " + term_key);
      continue;
    }
    PDB_ASSIGN_OR_RETURN(double p, ComputeUnion(coef_term.second, depth + 1));
    total += static_cast<double>(coef_term.first) * p;
  }
  return total;
}

Result<std::set<Value>> LiftedEngine::SeparatorSupport(
    const CqVec& disjuncts, const std::vector<std::string>& roots) {
  IndexCache* session_cache =
      exec_ != nullptr ? exec_->index_cache() : nullptr;
  std::set<Value> support;
  for (size_t d = 0; d < disjuncts.size(); ++d) {
    std::set<Value> disjunct_support;
    bool first_atom = true;
    for (const Atom& atom : disjuncts[d].atoms()) {
      PDB_ASSIGN_OR_RETURN(const Relation* rel, db_.Get(atom.predicate));
      // Positions of the root, and the constants that select this atom's
      // rows through an index probe.
      std::vector<size_t> root_positions;
      std::vector<size_t> key_cols;
      Tuple key;
      for (size_t j = 0; j < atom.args.size(); ++j) {
        const Term& t = atom.args[j];
        if (t.is_variable() && t.var() == roots[d]) {
          root_positions.push_back(j);
        } else if (t.is_constant()) {
          key_cols.push_back(j);
          key.push_back(t.constant());
        }
      }
      PDB_CHECK(!root_positions.empty());  // separator occurs in every atom
      // The unate rewrite's complements exist for this call only: caching
      // their indexes in the session would grow it until the next mutation.
      IndexCache* cache = session_cache == nullptr ||
                                  IsComplementSymbol(atom.predicate)
                              ? &call_cache_
                              : session_cache;
      std::set<Value> atom_support;
      for (uint32_t row : MatchingRows(*rel, key_cols, key, cache, exec_)) {
        const Tuple& tuple = rel->tuple(row);
        bool match = true;
        for (size_t r = 1; r < root_positions.size() && match; ++r) {
          match = tuple[root_positions[r]] == tuple[root_positions[0]];
        }
        if (match) atom_support.insert(tuple[root_positions[0]]);
      }
      if (first_atom) {
        disjunct_support = std::move(atom_support);
        first_atom = false;
      } else {
        std::set<Value> inter;
        std::set_intersection(
            disjunct_support.begin(), disjunct_support.end(),
            atom_support.begin(), atom_support.end(),
            std::inserter(inter, inter.begin()));
        disjunct_support = std::move(inter);
      }
      if (disjunct_support.empty()) break;
    }
    support.insert(disjunct_support.begin(), disjunct_support.end());
  }
  return support;
}

Result<double> LiftedEngine::GroundSeparator(
    const CqVec& disjuncts, const std::vector<std::string>& roots,
    size_t depth) {
  PDB_ASSIGN_OR_RETURN(std::set<Value> support,
                       SeparatorSupport(disjuncts, roots));
  Trace(depth, StrFormat("separator grounding over %zu constants",
                         support.size()));
  double any = 0.0;
  for (const Value& value : support) {
    CqVec grounded;
    grounded.reserve(disjuncts.size());
    for (size_t d = 0; d < disjuncts.size(); ++d) {
      grounded.push_back(disjuncts[d].Substitute(roots[d], value));
    }
    PDB_ASSIGN_OR_RETURN(double p, ComputeUnion(std::move(grounded), depth + 1));
    any = IndependentOr(any, p);
  }
  return any;
}

Result<double> LiftedProbability(const Ucq& ucq, const Database& db,
                                 LiftedOptions options, LiftedStats* stats) {
  LiftedEngine engine(db, options);
  Result<double> result = engine.Compute(ucq);
  if (stats != nullptr) *stats = engine.stats();
  return result;
}

Result<double> LiftedProbabilityFo(const FoPtr& sentence, const Database& db,
                                   LiftedOptions options, LiftedStats* stats,
                                   ExecContext* exec) {
  PDB_ASSIGN_OR_RETURN(UnateRewrite rewrite, RewriteUnateForUcq(sentence, db));
  LiftedEngine engine(rewrite.database, options, exec);
  Result<double> result = engine.Compute(rewrite.ucq);
  if (stats != nullptr) *stats = engine.stats();
  if (!result.ok()) return result;
  return rewrite.complemented ? 1.0 - *result : *result;
}

}  // namespace pdb
