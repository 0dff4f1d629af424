#include "boolean/lineage.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "exec/context.h"
#include "exec/join_profile.h"
#include "storage/columnar.h"
#include "storage/index_cache.h"
#include "util/check.h"
#include "util/string_util.h"

namespace pdb {

namespace {

// Assigns one Boolean variable per (relation, row), lazily, in first-use
// order: per-relation dense row -> VarId arrays, so the per-match hot path
// is one vector index. Both grounders number tuples through it.
class DenseVarTable {
 public:
  VarId VarFor(const Relation* rel, size_t row) {
    std::vector<int64_t>& ids = tables_[rel];
    if (ids.empty()) ids.assign(rel->size(), -1);
    int64_t& id = ids[row];
    if (id < 0) {
      id = static_cast<int64_t>(vars_.size());
      vars_.push_back({rel->name(), row});
      probs_.push_back(rel->prob(row));
    }
    return static_cast<VarId>(id);
  }

  std::vector<LineageVar> TakeVars() { return std::move(vars_); }
  std::vector<double> TakeProbs() { return std::move(probs_); }

 private:
  std::unordered_map<const Relation*, std::vector<int64_t>> tables_;
  std::vector<LineageVar> vars_;
  std::vector<double> probs_;
};

// Recursive grounding of an FO formula with an environment binding
// variables to values.
class FoGrounder {
 public:
  FoGrounder(const Database& db, const std::vector<Value>& domain,
             FormulaManager* mgr, DenseVarTable* vars)
      : db_(db), domain_(domain), mgr_(mgr), vars_(vars) {}

  Result<NodeId> Ground(const FoPtr& f,
                        std::map<std::string, Value>* env) {
    switch (f->kind()) {
      case FoKind::kTrue:
        return mgr_->True();
      case FoKind::kFalse:
        return mgr_->False();
      case FoKind::kAtom:
        return GroundAtom(f->atom(), *env);
      case FoKind::kNot: {
        PDB_ASSIGN_OR_RETURN(NodeId c, Ground(f->children()[0], env));
        return mgr_->Not(c);
      }
      case FoKind::kAnd:
      case FoKind::kOr: {
        std::vector<NodeId> kids;
        kids.reserve(f->children().size());
        for (const FoPtr& c : f->children()) {
          PDB_ASSIGN_OR_RETURN(NodeId g, Ground(c, env));
          kids.push_back(g);
        }
        return f->kind() == FoKind::kAnd ? mgr_->And(std::move(kids))
                                         : mgr_->Or(std::move(kids));
      }
      case FoKind::kExists:
      case FoKind::kForall: {
        std::vector<NodeId> kids;
        kids.reserve(domain_.size());
        const std::string& var = f->quantified_var();
        // Shadowing: remember any outer binding and restore it.
        auto outer = env->find(var);
        std::optional<Value> saved;
        if (outer != env->end()) saved = outer->second;
        for (const Value& v : domain_) {
          (*env)[var] = v;
          PDB_ASSIGN_OR_RETURN(NodeId g, Ground(f->children()[0], env));
          kids.push_back(g);
        }
        if (saved.has_value()) {
          (*env)[var] = *saved;
        } else {
          env->erase(var);
        }
        return f->kind() == FoKind::kExists ? mgr_->Or(std::move(kids))
                                            : mgr_->And(std::move(kids));
      }
    }
    return Status::Internal("unreachable FO kind");
  }

 private:
  Result<NodeId> GroundAtom(const Atom& atom,
                            const std::map<std::string, Value>& env) {
    PDB_ASSIGN_OR_RETURN(const Relation* rel, db_.Get(atom.predicate));
    if (rel->arity() != atom.arity()) {
      return Status::InvalidArgument(
          StrFormat("atom %s has arity %zu but relation has arity %zu",
                    atom.ToString().c_str(), atom.arity(), rel->arity()));
    }
    Tuple tuple;
    tuple.reserve(atom.arity());
    for (const Term& t : atom.args) {
      if (t.is_constant()) {
        tuple.push_back(t.constant());
      } else {
        auto it = env.find(t.var());
        if (it == env.end()) {
          return Status::InvalidArgument(
              StrFormat("unbound variable '%s' in atom %s", t.var().c_str(),
                        atom.ToString().c_str()));
        }
        tuple.push_back(it->second);
      }
    }
    // ProbOf first: most ground atoms miss, and a miss through Find would
    // format a NotFound message only to drop it.
    double p = rel->ProbOf(tuple);  // missing tuple: probability 0
    if (p == 1.0) return mgr_->True();
    if (p == 0.0) return mgr_->False();
    return mgr_->Var(vars_->VarFor(rel, *rel->Find(tuple)));
  }

  const Database& db_;
  const std::vector<Value>& domain_;
  FormulaManager* mgr_;
  DenseVarTable* vars_;
};

// The naive backtracking CQ matcher: joins atoms in syntactic order,
// re-derives bound positions per visit, binds variables through a
// name-keyed map. Kept verbatim (minus the old per-visit identity-vector
// allocation for unbound atoms) as the reference the compiled engine is
// differentially tested against: it emits matches in lexicographic order
// of the per-atom row vector, because hash-index buckets list rows in
// ascending order and full scans do too.
class ReferenceCqMatcher {
 public:
  ReferenceCqMatcher(const ConjunctiveQuery& cq, const Database& db)
      : cq_(cq), db_(db) {}

  Status Run(const std::function<void(const CqMatch&)>& callback) {
    const auto& atoms = cq_.atoms();
    relations_.resize(atoms.size());
    for (size_t i = 0; i < atoms.size(); ++i) {
      PDB_ASSIGN_OR_RETURN(relations_[i], db_.Get(atoms[i].predicate));
      if (relations_[i]->arity() != atoms[i].arity()) {
        return Status::InvalidArgument(
            StrFormat("atom %s arity mismatch with relation (%zu vs %zu)",
                      atoms[i].ToString().c_str(), atoms[i].arity(),
                      relations_[i]->arity()));
      }
    }
    match_.atom_rows.resize(atoms.size());
    Recurse(0, callback);
    return Status::OK();
  }

 private:
  void Recurse(size_t atom_idx,
               const std::function<void(const CqMatch&)>& callback) {
    if (atom_idx == cq_.atoms().size()) {
      callback(match_);
      return;
    }
    const Atom& atom = cq_.atoms()[atom_idx];
    const Relation& rel = *relations_[atom_idx];
    // Determine bound positions and their required values; also detect
    // repeated variables within the atom.
    std::vector<size_t> bound_pos;
    Tuple bound_vals;
    for (size_t j = 0; j < atom.args.size(); ++j) {
      const Term& t = atom.args[j];
      if (t.is_constant()) {
        bound_pos.push_back(j);
        bound_vals.push_back(t.constant());
      } else {
        auto it = env_.find(t.var());
        if (it != env_.end()) {
          bound_pos.push_back(j);
          bound_vals.push_back(it->second);
        }
      }
    }
    auto process_row = [&](size_t row) {
      const Tuple& tuple = rel.tuple(row);
      // Bind the free variables of this atom; verify repeated variables.
      std::vector<std::string> newly_bound;
      bool ok = true;
      for (size_t j = 0; j < atom.args.size() && ok; ++j) {
        const Term& t = atom.args[j];
        if (t.is_constant()) continue;
        auto it = env_.find(t.var());
        if (it == env_.end()) {
          env_.emplace(t.var(), tuple[j]);
          newly_bound.push_back(t.var());
        } else {
          ok = (it->second == tuple[j]);
        }
      }
      if (ok) {
        match_.atom_rows[atom_idx] = {atom.predicate, row};
        Recurse(atom_idx + 1, callback);
      }
      for (const std::string& v : newly_bound) env_.erase(v);
    };
    if (!bound_pos.empty()) {
      const HashIndex& index = IndexFor(atom_idx, rel, bound_pos);
      for (size_t row : index.Lookup(bound_vals)) process_row(row);
    } else {
      // Iterate rows directly instead of materialising an identity vector.
      for (size_t row = 0; row < rel.size(); ++row) process_row(row);
    }
  }

  const HashIndex& IndexFor(size_t atom_idx, const Relation& rel,
                            const std::vector<size_t>& bound_pos) {
    auto key = std::make_pair(atom_idx, bound_pos);
    auto it = indexes_.find(key);
    if (it == indexes_.end()) {
      it = indexes_.emplace(key, HashIndex(rel, bound_pos)).first;
    }
    return it->second;
  }

  const ConjunctiveQuery& cq_;
  const Database& db_;
  std::vector<const Relation*> relations_;
  std::map<std::string, Value> env_;
  CqMatch match_;
  std::map<std::pair<size_t, std::vector<size_t>>, HashIndex> indexes_;
};

// ---------------------------------------------------------------------------
// Compiled join programs
// ---------------------------------------------------------------------------

// One column of a join step's index key: either a constant from the query
// or a slot bound by an earlier step.
struct JoinKeyPart {
  uint32_t col = 0;
  int32_t slot = -1;  // >= 0: runtime slot; < 0: use `constant`
  Value constant;
};

// One atom of the compiled program, in execution order. All column
// classification (key / first-binding / repeated-variable check) happens
// once at compile time; the runtime touches dense slot arrays only.
struct JoinStep {
  const Relation* rel = nullptr;
  uint32_t atom_index = 0;  // position in cq.atoms()
  std::vector<size_t> key_cols;
  std::vector<JoinKeyPart> key_parts;  // aligned with key_cols
  /// (column, slot): first occurrence of a variable — bind the slot.
  std::vector<std::pair<uint32_t, uint32_t>> binds;
  /// (column, first column): variable repeated within this atom — verify
  /// equality between the two columns of the candidate tuple itself (the
  /// slot is only bound later in the same visit, so it cannot be used).
  std::vector<std::pair<uint32_t, uint32_t>> checks;
};

// Where a slot's value comes from: the execution step and column that
// first bound it. The executor uses this to pick the dictionary whose code
// space the slot carries.
struct SlotSource {
  uint32_t step = 0;
  uint32_t col = 0;
};

// A CQ lowered to a slot-based join program.
struct CompiledJoin {
  std::vector<JoinStep> steps;           // in execution order
  std::vector<const Relation*> by_atom;  // indexed by original atom index
  std::vector<SlotSource> slot_sources;  // indexed by slot id
  size_t num_slots = 0;
  size_t num_atoms = 0;
  /// Per execution-order step: the cost model's estimated rows per
  /// upstream partial match at ordering time (-1 when no statistics were
  /// consulted). Feeds EXPLAIN's estimate-vs-actual comparison.
  std::vector<double> step_estimates;
};

// Greedy cost-based ordering: at each step pick the atom with the
// smallest estimated result cardinality — relation size divided by the
// distinct-value count of the bound columns (constants plus variables
// bound by already-ordered atoms). With two or more bound columns the
// divisor is the *composite* distinct count (DistinctComposite over the
// columnar image: the key combinations that actually occur, counted once
// per image), so
// correlated key pairs are not overestimated the way the classic
// independence product would; a composite that overflows 64 bits falls
// back to the per-column product. Distinct counts come from the columnar
// dictionaries (`stats`, aligned with `atoms`). Ties break towards more
// bound positions (a tighter probe), then the smaller relation, then
// syntactic position — all deterministic. When `stats` is empty (callers
// that skipped the dictionaries) the estimate degrades to the old
// bound-count greedy.
std::vector<size_t> OrderAtoms(
    const std::vector<Atom>& atoms, const std::vector<const Relation*>& rels,
    const std::vector<std::shared_ptr<const ColumnarRelation>>& stats,
    AtomOrderPolicy policy, std::vector<double>* estimates) {
  std::vector<size_t> order(atoms.size());
  estimates->assign(atoms.size(), -1.0);
  if (policy == AtomOrderPolicy::kSyntactic) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    return order;
  }
  const bool have_stats = stats.size() == atoms.size();
  std::vector<bool> chosen(atoms.size(), false);
  std::map<std::string, bool> bound_vars;
  for (size_t step = 0; step < atoms.size(); ++step) {
    size_t best = atoms.size();
    double best_est = 0.0;
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (chosen[i]) continue;
      size_t bound = 0;
      std::vector<size_t> bound_cols;
      for (size_t j = 0; j < atoms[i].args.size(); ++j) {
        const Term& t = atoms[i].args[j];
        if (!t.is_constant() && !bound_vars.count(t.var())) continue;
        ++bound;
        bound_cols.push_back(j);
      }
      double est = static_cast<double>(rels[i]->size());
      if (have_stats && !bound_cols.empty()) {
        size_t composite = 0;
        if (bound_cols.size() >= 2) {
          composite = DistinctComposite(*stats[i], bound_cols);
        }
        if (composite > 0) {
          est /= static_cast<double>(composite);
        } else {
          // Single bound column, or composite overflow: independence.
          for (size_t j : bound_cols) {
            size_t distinct = stats[i]->distinct(j);
            est = distinct > 0 ? est / static_cast<double>(distinct) : 0.0;
          }
        }
      }
      bool better;
      if (best == atoms.size()) {
        better = true;
      } else if (have_stats && est != best_est) {
        better = est < best_est;
      } else if (bound != best_bound) {
        better = bound > best_bound;
      } else {
        better = rels[i]->size() < best_size;
      }
      if (better) {
        best = i;
        best_est = est;
        best_bound = bound;
        best_size = rels[i]->size();
      }
    }
    chosen[best] = true;
    order[step] = best;
    if (have_stats) (*estimates)[step] = best_est;
    for (const Term& t : atoms[best].args) {
      if (t.is_variable()) bound_vars[t.var()] = true;
    }
  }
  return order;
}

Result<CompiledJoin> CompileJoin(const ConjunctiveQuery& cq,
                                 const Database& db,
                                 const GroundingOptions& options) {
  const std::vector<Atom>& atoms = cq.atoms();
  CompiledJoin plan;
  plan.num_atoms = atoms.size();
  plan.by_atom.resize(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    PDB_ASSIGN_OR_RETURN(plan.by_atom[i], db.Get(atoms[i].predicate));
    if (plan.by_atom[i]->arity() != atoms[i].arity()) {
      return Status::InvalidArgument(
          StrFormat("atom %s arity mismatch with relation (%zu vs %zu)",
                    atoms[i].ToString().c_str(), atoms[i].arity(),
                    plan.by_atom[i]->arity()));
    }
  }
  // Selectivity statistics for the cost model: the per-relation columnar
  // dictionaries, cached on the relations themselves, so the O(n log n)
  // encode is paid once per relation — not per query.
  std::vector<std::shared_ptr<const ColumnarRelation>> stats;
  if (options.order == AtomOrderPolicy::kCostBased) {
    stats.reserve(atoms.size());
    for (const Relation* rel : plan.by_atom) stats.push_back(rel->columnar());
  }
  std::vector<size_t> order = OrderAtoms(atoms, plan.by_atom, stats,
                                         options.order, &plan.step_estimates);
  std::unordered_map<std::string, uint32_t> slot_of_var;
  plan.steps.reserve(atoms.size());
  for (size_t s = 0; s < order.size(); ++s) {
    const size_t i = order[s];
    const Atom& atom = atoms[i];
    JoinStep step;
    step.rel = plan.by_atom[i];
    step.atom_index = static_cast<uint32_t>(i);
    // First column of each variable within this atom, for repeat checks.
    std::unordered_map<std::string, uint32_t> first_col;
    for (size_t j = 0; j < atom.args.size(); ++j) {
      const Term& t = atom.args[j];
      if (t.is_constant()) {
        step.key_cols.push_back(j);
        JoinKeyPart part;
        part.col = static_cast<uint32_t>(j);
        part.constant = t.constant();
        step.key_parts.push_back(std::move(part));
        continue;
      }
      auto in_atom = first_col.find(t.var());
      if (in_atom != first_col.end()) {
        // Repeated variable within this atom: compare the two columns of
        // the candidate tuple directly.
        step.checks.emplace_back(static_cast<uint32_t>(j),
                                 in_atom->second);
        continue;
      }
      first_col.emplace(t.var(), static_cast<uint32_t>(j));
      auto it = slot_of_var.find(t.var());
      if (it == slot_of_var.end()) {
        uint32_t slot = static_cast<uint32_t>(plan.num_slots++);
        slot_of_var.emplace(t.var(), slot);
        step.binds.emplace_back(static_cast<uint32_t>(j), slot);
        plan.slot_sources.push_back(
            {static_cast<uint32_t>(s), static_cast<uint32_t>(j)});
      } else {
        // Bound by an earlier step: part of the index key.
        step.key_cols.push_back(j);
        JoinKeyPart part;
        part.col = static_cast<uint32_t>(j);
        part.slot = static_cast<int32_t>(it->second);
        step.key_parts.push_back(std::move(part));
      }
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

// The plan-only profile of a compiled join: steps in execution order with
// their estimates, nothing executed yet.
JoinPlanProfile ProfileOf(const CompiledJoin& plan) {
  JoinPlanProfile profile;
  profile.steps.reserve(plan.steps.size());
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    JoinStepProfile sp;
    sp.atom_index = plan.steps[s].atom_index;
    sp.predicate = plan.steps[s].rel->name();
    sp.relation_rows = plan.steps[s].rel->size();
    sp.estimated_rows =
        s < plan.step_estimates.size() ? plan.step_estimates[s] : -1.0;
    profile.steps.push_back(std::move(sp));
  }
  return profile;
}

// Runs a compiled join program over the relations' columnar images and
// materialises the match set in the canonical order: lexicographically
// ascending per-atom row vectors (indexed by *original* atom position),
// which is exactly the order the reference matcher streams.
// Canonicalisation makes downstream VarId numbering — and therefore
// formula structure and DPLL probabilities — invariant under join order
// and cache state.
//
// Execution touches dictionary codes only: slots carry `uint32_t` codes,
// key probes translate codes between column dictionaries through
// precomputed xlat arrays and read the bucket of a one-column
// `ColumnarIndex` (a CSR, no hashing at all) on the key's `ProbedKeyPart`
// column, checking the other key columns' codes per bucket row, and
// repeated-variable checks are evaluated once per relation as a batch
// filter over the code arrays instead of per visit. Every step emits
// candidate rows in ascending row order.
class JoinExecutor {
 public:
  JoinExecutor(const CompiledJoin& plan, ExecContext* exec)
      : plan_(plan), exec_(exec), k_(plan.num_atoms) {}

  void Run() {
    if (k_ == 0) {
      // An empty conjunction is `true`: exactly one empty match.
      empty_cq_ = true;
      if (exec_ != nullptr) exec_->Add(ExecCounter::kLineageMatches, 1);
      RecordProfile();
      return;
    }
    step_rows_.assign(plan_.steps.size(), 0);
    Prepare();
    // When a query constant is absent from its column's dictionary no row
    // of that step can ever match, so the whole CQ has zero matches.
    if (!impossible_) {
      slots_.assign(plan_.num_slots, 0);
      rows_.assign(k_, 0);
      RunFrom(0);
      Canonicalize();
    }
    if (exec_ != nullptr) {
      exec_->Add(ExecCounter::kLineageMatches, num_matches());
    }
    RecordProfile();
  }

  size_t num_matches() const {
    return empty_cq_ ? 1 : (k_ == 0 ? 0 : buf_.size() / k_);
  }

  /// Visits matches in canonical order; `rows` holds the matched row of
  /// each atom, indexed by original atom position.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (empty_cq_) {
      fn(static_cast<const uint32_t*>(nullptr));
      return;
    }
    const size_t n = num_matches();
    for (size_t m = 0; m < n; ++m) {
      size_t physical = perm_.empty() ? m : perm_[m];
      fn(buf_.data() + physical * k_);
    }
  }

 private:
  // One key part: a pre-coded constant, or a slot whose source-dictionary
  // codes translate into this key column's dictionary through `xlat`.
  struct ColumnarPart {
    int32_t slot = -1;        // < 0: use const_code
    uint32_t const_code = 0;  // code of the constant in the key column
    std::vector<uint32_t> xlat;
    const uint32_t* codes = nullptr;  // the key column's per-row codes
  };

  // One bind: write the column's code array entry into the slot.
  struct ColumnarBind {
    const uint32_t* codes = nullptr;
    uint32_t slot = 0;
  };

  // Per-step execution state.
  struct ColumnarStep {
    std::shared_ptr<const ColumnarRelation> cols;
    std::shared_ptr<const ColumnarIndex> index;  // keyed steps only
    std::vector<ColumnarPart> parts;             // aligned with key_parts
    size_t probe = 0;       // the part whose column `index` covers
    size_t key_offset = 0;  // start of this step's key codes in `key_`
    std::vector<ColumnarBind> binds;
    // Repeated-variable checks, evaluated once per execution as a batch
    // filter over the code arrays: keyed steps keep a row mask consulted
    // on each bucket visit; keyless steps shrink to the passing row list
    // outright (so per-visit scans skip failing rows entirely).
    std::vector<uint8_t> pass;       // keyed steps with checks
    std::vector<uint32_t> filtered;  // keyless steps with checks
    bool use_filtered = false;
  };

  // Resolves the columnar image, code index, translation tables, and batch
  // check filters of every step. Sets `impossible_` when a query constant
  // is absent from its column's dictionary.
  void Prepare() {
    IndexCache* cache = exec_ != nullptr ? exec_->index_cache() : nullptr;
    csteps_.assign(plan_.steps.size(), ColumnarStep{});
    // Pass 1: columnar images — key-part translation tables of later
    // steps need the source step's dictionaries.
    for (size_t s = 0; s < plan_.steps.size(); ++s) {
      csteps_[s].cols = plan_.steps[s].rel->columnar();
    }
    size_t key_size = 0;
    for (size_t s = 0; s < plan_.steps.size(); ++s) {
      const JoinStep& step = plan_.steps[s];
      ColumnarStep& cs = csteps_[s];
      const ColumnarRelation& cols = *cs.cols;
      if (!step.key_cols.empty()) {
        cs.probe = ProbedKeyPart(cols, step.key_cols);
        cs.index =
            ColumnarIndexFor(cs.cols, step.key_cols[cs.probe], cache, exec_);
        cs.key_offset = key_size;
        key_size += step.key_parts.size();
        cs.parts.resize(step.key_parts.size());
        for (size_t p = 0; p < step.key_parts.size(); ++p) {
          const JoinKeyPart& part = step.key_parts[p];
          ColumnarPart& cp = cs.parts[p];
          cp.slot = part.slot;
          cp.codes = cols.codes(step.key_cols[p]).data();
          if (part.slot < 0) {
            cp.const_code = cols.CodeOf(step.key_cols[p], part.constant);
            if (cp.const_code == ColumnarRelation::kNoCode) {
              impossible_ = true;
            }
          } else {
            const SlotSource& src = plan_.slot_sources[part.slot];
            cp.xlat = BuildCodeTranslation(
                csteps_[src.step].cols->dict(src.col),
                cols.dict(step.key_cols[p]));
          }
        }
      }
      cs.binds.reserve(step.binds.size());
      for (const auto& [col, slot] : step.binds) {
        cs.binds.push_back({cols.codes(col).data(), slot});
      }
      if (!step.checks.empty()) {
        const size_t n = cols.num_rows();
        std::vector<uint8_t> pass(n, 1);
        for (const auto& [col, first] : step.checks) {
          std::vector<uint32_t> xlat =
              BuildCodeTranslation(cols.dict(first), cols.dict(col));
          const uint32_t* f = cols.codes(first).data();
          const uint32_t* c = cols.codes(col).data();
          // kNoCode never equals a valid code, so "first's value absent
          // from col's dictionary" fails the row without a branch.
          for (size_t row = 0; row < n; ++row) {
            if (xlat[f[row]] != c[row]) pass[row] = 0;
          }
        }
        if (step.key_cols.empty()) {
          for (size_t row = 0; row < n; ++row) {
            if (pass[row]) cs.filtered.push_back(static_cast<uint32_t>(row));
          }
          cs.use_filtered = true;
        } else {
          cs.pass = std::move(pass);
        }
      }
    }
    key_.assign(key_size, 0);
  }

  // Whether bucket row `row` carries the key codes `key` in every part
  // but the probed one, and passes the batch-filter mask.
  static bool RowMatches(const ColumnarStep& cs, const uint32_t* key,
                         uint32_t row) {
    for (size_t p = 0; p < cs.parts.size(); ++p) {
      if (p != cs.probe && cs.parts[p].codes[row] != key[p]) return false;
    }
    return cs.pass.empty() || cs.pass[row] != 0;
  }

  // Key checks and batch-filter mask (keyed steps), then binds. Keyless
  // steps with checks always pass: their candidate list is pre-filtered.
  bool EnterRow(const ColumnarStep& cs, const JoinStep& step,
                const uint32_t* key, uint32_t row) {
    if (!RowMatches(cs, key, row)) return false;
    for (const ColumnarBind& bind : cs.binds) {
      slots_[bind.slot] = bind.codes[row];
    }
    rows_[step.atom_index] = static_cast<uint32_t>(row);
    return true;
  }

  void RunFrom(size_t s) {
    const JoinStep& step = plan_.steps[s];
    const ColumnarStep& cs = csteps_[s];
    // Candidate rows of this step, as a dense uint32 span: the probed
    // column's index bucket when keyed, the pre-filtered row list or the
    // whole relation otherwise. null base = identity rows [0, count). The
    // step's key codes live in its own slice of `key_`: deeper steps run
    // before the rest of the bucket is checked against them.
    const uint32_t* base = nullptr;
    size_t count = 0;
    uint32_t* key = nullptr;
    if (!step.key_cols.empty()) {
      key = &key_[cs.key_offset];
      for (size_t p = 0; p < cs.parts.size(); ++p) {
        const ColumnarPart& part = cs.parts[p];
        uint32_t c = part.slot < 0 ? part.const_code
                                   : part.xlat[slots_[part.slot]];
        // The slot's value is absent from this key column's dictionary:
        // no row of this relation can match the current binding.
        if (c == ColumnarRelation::kNoCode) return;
        key[p] = c;
      }
      cs.index->Lookup(key[cs.probe], &base, &count);
    } else if (cs.use_filtered) {
      base = cs.filtered.data();
      count = cs.filtered.size();
    } else {
      count = cs.cols->num_rows();
    }
    if (s + 1 == plan_.steps.size()) {
      // Final step: its binds feed no later probe, so a match is pure
      // row-id bookkeeping — a tight loop with no tuple materialisation.
      uint32_t* slot_row = &rows_[step.atom_index];
      for (size_t i = 0; i < count; ++i) {
        uint32_t row = base != nullptr ? base[i] : static_cast<uint32_t>(i);
        if (!RowMatches(cs, key, row)) continue;
        *slot_row = row;
        ++step_rows_[s];
        buf_.insert(buf_.end(), rows_.begin(), rows_.end());
      }
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      uint32_t row = base != nullptr ? base[i] : static_cast<uint32_t>(i);
      if (EnterRow(cs, step, key, row)) {
        ++step_rows_[s];
        RunFrom(s + 1);
      }
    }
  }

  // Sorts the match set into canonical (lexicographic) order when the
  // enumeration order deviated from it. With the syntactic join order the
  // stream is already canonical, so the common case is a linear is_sorted
  // scan and no permutation.
  void Canonicalize() {
    const size_t n = k_ == 0 ? 0 : buf_.size() / k_;
    if (n <= 1) return;
    auto less = [&](size_t a, size_t b) {
      const uint32_t* pa = buf_.data() + a * k_;
      const uint32_t* pb = buf_.data() + b * k_;
      for (size_t i = 0; i < k_; ++i) {
        if (pa[i] != pb[i]) return pa[i] < pb[i];
      }
      return false;
    };
    bool sorted = true;
    for (size_t m = 1; m < n && sorted; ++m) {
      if (less(m, m - 1)) sorted = false;
    }
    if (sorted) return;
    perm_.resize(n);
    for (size_t m = 0; m < n; ++m) perm_[m] = m;
    std::sort(perm_.begin(), perm_.end(), less);
  }

  // Reports the executed plan — estimates next to actuals — into the
  // context's JoinProfile when one is attached.
  void RecordProfile() const {
    if (exec_ == nullptr || exec_->join_profile() == nullptr) return;
    JoinPlanProfile profile = ProfileOf(plan_);
    profile.executed = true;
    profile.matches = num_matches();
    for (size_t s = 0; s < step_rows_.size(); ++s) {
      profile.steps[s].actual_rows = step_rows_[s];
    }
    exec_->join_profile()->AddPlan(std::move(profile));
  }

  const CompiledJoin& plan_;
  ExecContext* exec_;
  const size_t k_;
  bool empty_cq_ = false;
  bool impossible_ = false;  // a constant missed its dictionary: 0 matches
  std::vector<ColumnarStep> csteps_;
  std::vector<uint32_t> slots_;      // dictionary code per slot
  std::vector<uint32_t> rows_;       // current row per original atom index
  std::vector<uint32_t> key_;        // key codes, one slice per keyed step
  std::vector<uint64_t> step_rows_;  // per-step entered rows
  std::vector<uint32_t> buf_;  // k_ row ids per match, enumeration order
  std::vector<size_t> perm_;   // canonical -> physical; empty = identity
};

}  // namespace

Result<Lineage> BuildLineage(const FoPtr& sentence, const Database& db,
                             FormulaManager* mgr,
                             const std::vector<Value>* domain) {
  if (!sentence->FreeVariables().empty()) {
    return Status::InvalidArgument(
        "lineage requires a sentence without free variables");
  }
  std::vector<Value> active;
  if (domain == nullptr) {
    active = db.ActiveDomain();
    domain = &active;
  }
  DenseVarTable vars;
  FoGrounder grounder(db, *domain, mgr, &vars);
  std::map<std::string, Value> env;
  PDB_ASSIGN_OR_RETURN(NodeId root, grounder.Ground(sentence, &env));
  Lineage lineage;
  lineage.root = root;
  lineage.vars = vars.TakeVars();
  lineage.probs = vars.TakeProbs();
  return lineage;
}

Status EnumerateCqMatchesReference(
    const ConjunctiveQuery& cq, const Database& db,
    const std::function<void(const CqMatch&)>& callback) {
  ReferenceCqMatcher matcher(cq, db);
  return matcher.Run(callback);
}

Status EnumerateCqMatches(const ConjunctiveQuery& cq, const Database& db,
                          const std::function<void(const CqMatch&)>& callback,
                          const GroundingOptions& options) {
  PDB_ASSIGN_OR_RETURN(CompiledJoin plan,
                       CompileJoin(cq, db, options));
  JoinExecutor ex(plan, options.exec);
  ex.Run();
  CqMatch match;
  match.atom_rows.resize(plan.num_atoms);
  for (size_t i = 0; i < plan.num_atoms; ++i) {
    match.atom_rows[i].relation = cq.atoms()[i].predicate;
  }
  ex.ForEach([&](const uint32_t* rows) {
    for (size_t i = 0; i < plan.num_atoms; ++i) {
      match.atom_rows[i].row = rows[i];
    }
    callback(match);
  });
  return Status::OK();
}

Result<JoinPlanProfile> PlanCqJoin(const ConjunctiveQuery& cq,
                                   const Database& db,
                                   const GroundingOptions& options) {
  PDB_ASSIGN_OR_RETURN(CompiledJoin plan, CompileJoin(cq, db, options));
  return ProfileOf(plan);
}

Result<DnfLineage> BuildUcqDnf(const Ucq& ucq, const Database& db,
                               const GroundingOptions& options) {
  DenseVarTable vars;
  DnfLineage out;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    PDB_ASSIGN_OR_RETURN(CompiledJoin plan,
                         CompileJoin(cq, db, options));
    JoinExecutor ex(plan, options.exec);
    ex.Run();
    const size_t k = plan.num_atoms;
    out.terms.reserve(out.terms.size() + ex.num_matches());
    ex.ForEach([&](const uint32_t* rows) {
      std::vector<VarId> term;
      term.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        term.push_back(vars.VarFor(plan.by_atom[i], rows[i]));
      }
      std::sort(term.begin(), term.end());
      term.erase(std::unique(term.begin(), term.end()), term.end());
      out.terms.push_back(std::move(term));
    });
  }
  out.vars = vars.TakeVars();
  out.probs = vars.TakeProbs();
  return out;
}

Lineage LineageOfDnf(const DnfLineage& dnf, FormulaManager* mgr) {
  // A term's VarIds are sorted and the DNF numbers variables in first-use
  // order, so this walk meets variables in DNF-id order: the renumbering,
  // and the order Var and And nodes are interned in, are those of a walk
  // over the matches' atoms.
  constexpr VarId kUnnumbered = ~VarId{0};
  std::vector<VarId> renumbered(dnf.vars.size(), kUnnumbered);
  Lineage lineage;
  lineage.vars.reserve(dnf.vars.size());
  lineage.probs.reserve(dnf.probs.size());
  std::vector<NodeId> term_nodes;
  term_nodes.reserve(dnf.terms.size());
  std::vector<NodeId> lits;
  for (const std::vector<VarId>& term : dnf.terms) {
    lits.clear();
    for (VarId v : term) {
      if (dnf.probs[v] == 1.0) continue;  // certain tuple: no literal
      VarId& id = renumbered[v];
      if (id == kUnnumbered) {
        id = static_cast<VarId>(lineage.vars.size());
        lineage.vars.push_back(dnf.vars[v]);
        lineage.probs.push_back(dnf.probs[v]);
      }
      lits.push_back(mgr->Var(id));
    }
    term_nodes.push_back(mgr->And(lits));
  }
  lineage.root = mgr->Or(std::move(term_nodes));
  return lineage;
}

Result<Lineage> BuildUcqLineage(const Ucq& ucq, const Database& db,
                                FormulaManager* mgr,
                                const GroundingOptions& options) {
  PDB_ASSIGN_OR_RETURN(DnfLineage dnf, BuildUcqDnf(ucq, db, options));
  return LineageOfDnf(dnf, mgr);
}

}  // namespace pdb
