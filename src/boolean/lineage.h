/// \file lineage.h
/// \brief Lineage construction: grounding a query over a TID into a Boolean
/// formula (paper §7 and appendix "Lineage of an FO sentence").
///
/// Each stored tuple becomes one Boolean variable; the lineage F_{Q,DOM} is
/// true under an assignment iff the corresponding possible world satisfies
/// Q. Tuples outside the database have probability 0 and ground to the
/// constant `false`.
///
/// UCQ grounding runs on a compiled join engine: each CQ is lowered once
/// into a slot-based join program (variables mapped to dense integer
/// slots, per-atom key/bind/check column lists precomputed), atoms are
/// reordered by selectivity estimates from per-column distinct-value
/// counts so chain, star, and cyclic joins never enumerate cross
/// products, and the program runs sequentially over the relations'
/// columnar images (storage/columnar.h): bind slots carry dense dictionary
/// codes, key probes and repeated-variable checks run as tight loops over
/// `uint32_t` arrays against code indexes taken from a session cache when
/// one is available, and rows only materialise as tuples once a full
/// match is emitted. Matches are canonicalised to the lexicographic order
/// of their per-atom row vectors — which is exactly the order the naive
/// syntactic backtracking search emits — so every downstream consumer
/// (variable numbering, formula structure, DPLL probabilities) is
/// bit-identical regardless of join order or cache state.

#ifndef PDB_BOOLEAN_LINEAGE_H_
#define PDB_BOOLEAN_LINEAGE_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "boolean/formula.h"
#include "exec/join_profile.h"
#include "logic/cq.h"
#include "logic/fo.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdb {

class ExecContext;

/// Origin of a lineage variable: a row of a relation.
struct LineageVar {
  std::string relation;
  size_t row = 0;
};

/// A grounded query: formula root plus the tuple <-> variable mapping.
struct Lineage {
  NodeId root = 0;
  /// Metadata per VarId (index = VarId).
  std::vector<LineageVar> vars;
  /// Marginal probability per VarId.
  std::vector<double> probs;
};

/// Join-order policy of the compiled CQ grounding engine.
enum class AtomOrderPolicy {
  /// Greedy cost-based ordering: at each step pick the atom with the
  /// smallest estimated result cardinality — relation size divided by the
  /// distinct-value count of every bound column (constants + variables
  /// bound by earlier steps), the classic independence estimate. Distinct
  /// counts come from the columnar dictionaries cached on each relation.
  /// Ties break towards more bound positions, then the smaller relation,
  /// then syntactic position. Keeps chain, star, and cyclic joins from
  /// enumerating cross products.
  kCostBased,
  /// Join atoms exactly in the order they appear in the query (the
  /// historical behaviour; useful as an adversarial baseline).
  kSyntactic,
};

/// Knobs for the CQ grounding engine. The defaults reproduce the exact
/// match set and order of the naive reference matcher; every knob is a
/// pure performance control.
struct GroundingOptions {
  /// Execution context carrying the session index cache and the
  /// lineage/index counters. Null = no cache, no counters.
  ExecContext* exec = nullptr;
  /// Join-order policy (see AtomOrderPolicy).
  AtomOrderPolicy order = AtomOrderPolicy::kCostBased;
};

/// Grounds an FO sentence over `db`, quantifying over `domain` (defaults to
/// the active domain). Inductive construction from the paper's appendix.
Result<Lineage> BuildLineage(const FoPtr& sentence, const Database& db,
                             FormulaManager* mgr,
                             const std::vector<Value>* domain = nullptr);

/// One match of a CQ against the database: for each atom (by index), the
/// matched row in its relation.
struct CqMatch {
  /// Parallel to cq.atoms(): (relation name, row id).
  std::vector<LineageVar> atom_rows;
};

/// Enumerates all satisfying assignments ("matches") of a Boolean CQ against
/// `db`, invoking `callback` for each, in the lexicographic order of the
/// per-atom row vector (ascending row of atom 0, then atom 1, ...). Returns
/// an error if an atom references a missing relation or has an arity
/// mismatch.
Status EnumerateCqMatches(const ConjunctiveQuery& cq, const Database& db,
                          const std::function<void(const CqMatch&)>& callback,
                          const GroundingOptions& options = {});

/// Compiles `cq`'s join program without executing it: the cost-based atom
/// order and per-step selectivity estimates, as a `JoinPlanProfile` with
/// zero `actual_rows` and `executed` false. The plan-only half of EXPLAIN;
/// EXPLAIN ANALYZE instead executes and collects the profile through
/// `ExecContext::join_profile`.
Result<JoinPlanProfile> PlanCqJoin(const ConjunctiveQuery& cq,
                                   const Database& db,
                                   const GroundingOptions& options = {});

/// The naive syntactic-order backtracking matcher the compiled engine
/// replaced, kept as the reference implementation for differential tests
/// (the compiled engine must reproduce its match order exactly).
Status EnumerateCqMatchesReference(
    const ConjunctiveQuery& cq, const Database& db,
    const std::function<void(const CqMatch&)>& callback);

/// A UCQ's lineage F_{Q,D} as explicit term lists: one term per CQ match,
/// disjunct by disjunct in match order, each term the sorted, distinct
/// VarIds of the match's rows. Every matched tuple is a variable, certain
/// ones (p = 1) included, numbered in first-use order over the matches'
/// atoms. The one UCQ grounding: DPLL's formula (`LineageOfDnf`), the
/// dissociated lower bound's occurrence counts k (paper §6;
/// plans/bounds.h) and Karp–Luby's terms all read it.
struct DnfLineage {
  std::vector<std::vector<VarId>> terms;
  /// Metadata per VarId (index = VarId).
  std::vector<LineageVar> vars;
  /// Marginal probability per VarId.
  std::vector<double> probs;
};

/// Grounds a UCQ by join-style enumeration of satisfying assignments —
/// polynomial in the data rather than in domain^#vars — through the
/// compiled join engine, one run per disjunct.
Result<DnfLineage> BuildUcqDnf(const Ucq& ucq, const Database& db,
                               const GroundingOptions& options = {});

/// DPLL's formula for a DNF lineage: an `Or` over the terms, each term the
/// `And` of its variables. Certain tuples (p = 1) are DNF variables but not
/// formula variables: they drop out of their terms, so a term of certain
/// tuples alone is `true`, and an empty DNF is `false`. The other variables
/// are renumbered in first-use order over the terms, so the result's
/// `vars` and `probs` list formula variables only.
Lineage LineageOfDnf(const DnfLineage& dnf, FormulaManager* mgr);

/// `LineageOfDnf` of `BuildUcqDnf`: equivalent to BuildLineage on the UCQ's
/// FO form, numbering variables in first-use order over the matches.
Result<Lineage> BuildUcqLineage(const Ucq& ucq, const Database& db,
                                FormulaManager* mgr,
                                const GroundingOptions& options = {});

}  // namespace pdb

#endif  // PDB_BOOLEAN_LINEAGE_H_
