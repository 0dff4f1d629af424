/// \file join_profile.h
/// \brief Per-plan join instrumentation for EXPLAIN ANALYZE.
///
/// The grounding engine compiles each CQ into a slot-based join program
/// whose atom order is chosen from selectivity *estimates* (relation size
/// over per-column distinct counts — the classic independence assumption).
/// A `JoinProfile` attached to the `ExecContext` captures, per executed
/// plan, those estimates side by side with the *actual* per-step partial
/// match counts the executor observed. EXPLAIN ANALYZE renders the two
/// columns together so a cardinality misestimate (e.g. a
/// correlated dataset breaking the independence assumption) is visible
/// per atom instead of hidden inside a slow query.
///
/// Recording is opt-in exactly like tracing: a null `ExecContext::
/// join_profile()` costs nothing beyond the per-step counters the
/// executor already keeps locally.

#ifndef PDB_EXEC_JOIN_PROFILE_H_
#define PDB_EXEC_JOIN_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pdb {

/// One join step of an executed (or planned) CQ join program.
struct JoinStepProfile {
  /// Index of the atom in the query's syntactic atom list.
  size_t atom_index = 0;
  /// Predicate (relation) name of the atom.
  std::string predicate;
  /// Rows in the atom's relation.
  uint64_t relation_rows = 0;
  /// Estimated rows this step contributes per upstream partial match
  /// (relation size divided by the distinct count of each bound column);
  /// negative when no estimate was available (syntactic order, no stats).
  double estimated_rows = -1.0;
  /// Partial matches that survived through this step (rows entered at the
  /// last step = emitted matches). Zero for a plan-only EXPLAIN.
  uint64_t actual_rows = 0;
};

/// One compiled plan: the ordered steps and what executing them produced.
struct JoinPlanProfile {
  std::vector<JoinStepProfile> steps;
  /// Matches the executor emitted (0 for plan-only EXPLAIN).
  uint64_t matches = 0;
  /// True when the plan was compiled but not executed (plain EXPLAIN).
  bool executed = false;
};

/// Thread-safe accumulator of executed plans, carried (not owned) by the
/// `ExecContext` the way the trace pointer is.
class JoinProfile {
 public:
  JoinProfile() = default;
  JoinProfile(const JoinProfile&) = delete;
  JoinProfile& operator=(const JoinProfile&) = delete;

  void AddPlan(JoinPlanProfile plan) {
    std::lock_guard<std::mutex> lock(mu_);
    plans_.push_back(std::move(plan));
  }

  std::vector<JoinPlanProfile> plans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return plans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<JoinPlanProfile> plans_;  // guarded by mu_
};

}  // namespace pdb

#endif  // PDB_EXEC_JOIN_PROFILE_H_
