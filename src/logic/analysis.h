/// \file analysis.h
/// \brief Static analysis of queries: hierarchy, separators, components,
/// polarity, and the unate-to-UCQ rewriting from paper §4.

#ifndef PDB_LOGIC_ANALYSIS_H_
#define PDB_LOGIC_ANALYSIS_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "logic/fo.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdb {

/// True iff `cq` is hierarchical (Definition 4.2): for any two variables
/// x, y, at(x) and at(y) are nested or disjoint, where at(v) is the set of
/// atoms (by index) containing v.
bool IsHierarchical(const ConjunctiveQuery& cq);

/// Variables occurring in every atom of `cq` ("root variables").
/// Atoms without variables are ignored; returns empty when cq has no atoms
/// with variables.
std::set<std::string> RootVariables(const ConjunctiveQuery& cq);

/// Splits `cq` into variable-connected components: two atoms are connected
/// when they share a variable. Ground atoms (no variables) form singleton
/// components. Component order is deterministic.
std::vector<ConjunctiveQuery> VariableConnectedComponents(
    const ConjunctiveQuery& cq);

/// Partitions items 0..n-1 given their symbol sets: two items are grouped
/// when their symbol sets intersect (transitively). Returns groups of item
/// indices, deterministically ordered.
std::vector<std::vector<size_t>> GroupBySharedSymbols(
    const std::vector<std::set<std::string>>& symbol_sets);

/// A separator for a UCQ: one root variable per disjunct such that, for
/// every relation symbol R, all R-atoms across all disjuncts carry their
/// disjunct's chosen variable at the same argument position (paper §5).
/// Grounding a separator to the same constant in every disjunct yields
/// independent events across constants.
std::optional<std::vector<std::string>> FindSeparator(const Ucq& ucq);

/// Polarity bookkeeping for unateness: whether each predicate occurs
/// positively and/or under negation (computed on the NNF).
struct Polarity {
  bool positive = false;
  bool negative = false;
};
std::map<std::string, Polarity> PredicatePolarities(const FoPtr& f);

/// True iff every predicate occurs with a single polarity (paper §4).
bool IsUnate(const FoPtr& f);

/// True iff the NNF contains no universal quantifier.
bool IsExistentialSentence(const FoPtr& f);
/// True iff the NNF contains no existential quantifier.
bool IsUniversalSentence(const FoPtr& f);

/// Result of rewriting a unate sentence for UCQ-based evaluation.
struct UnateRewrite {
  /// The UCQ to evaluate on `database`.
  Ucq ucq;
  /// The input database plus complement relations for negated symbols. It
  /// is a copy-on-write copy: the input's relations are shared, not
  /// copied, and only the complements are new.
  Database database;
  /// True when the original sentence was universal: the caller must report
  /// 1 - P(ucq).
  bool complemented = false;
};

/// Rewrites a unate FO sentence with a purely existential or purely
/// universal quantifier structure into a UCQ over a (possibly extended)
/// database, per the transformation described below Theorem 4.1:
///  * negated symbols are replaced by fresh complement symbols `R__c`
///    materialized over the active domain with probabilities 1 - t.P;
///  * universal sentences are evaluated through their negation, so the
///    returned flag asks the caller to complement the final probability.
/// `max_complement_tuples` guards the domain^arity materialization.
Result<UnateRewrite> RewriteUnateForUcq(const FoPtr& sentence,
                                        const Database& db,
                                        size_t max_complement_tuples = 1000000);

/// Name used for the complement symbol of relation `name`.
std::string ComplementSymbol(const std::string& name);

/// True when `name` has the form of a complement symbol.
bool IsComplementSymbol(const std::string& name);

/// Materializes the complement of `rel` over `domain`^arity: every tuple t
/// gets probability 1 - p_rel(t) (so tuples absent from rel get 1).
Result<Relation> ComplementRelation(const Relation& rel,
                                    const std::vector<Value>& domain,
                                    size_t max_tuples);

}  // namespace pdb

#endif  // PDB_LOGIC_ANALYSIS_H_
