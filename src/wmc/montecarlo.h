/// \file montecarlo.h
/// \brief Approximate inference: naive Monte Carlo over possible worlds and
/// the Karp–Luby FPRAS for DNF lineages.
///
/// These are the practical fallback when PQE(Q) is #P-hard (paper §2, §10):
/// both return unbiased estimates with O(1/sqrt(samples)) error; Karp-Luby's
/// relative error is independent of how small the probability is.
///
/// Both estimators shard their sample budget into deterministic RNG
/// substreams (`Rng::Split`). The shard plan depends only on the requested
/// sample count — never on the thread count — and shard results are merged
/// in shard order on the calling thread, so for a fixed seed the estimate is
/// bit-identical whether it ran on 1 worker or 64. Pass an `ExecContext`
/// with a pool to run shards in parallel; the context's deadline/cancel
/// signal stops sampling early (the estimate then reports the number of
/// samples actually drawn).

#ifndef PDB_WMC_MONTECARLO_H_
#define PDB_WMC_MONTECARLO_H_

#include <cstdint>
#include <vector>

#include "boolean/formula.h"
#include "exec/context.h"
#include "util/random.h"
#include "util/status.h"

namespace pdb {

/// An estimate with its standard error.
struct Estimate {
  double value = 0.0;
  double std_error = 0.0;
  /// Samples actually drawn (less than requested when stopped early).
  uint64_t samples = 0;
};

/// Number of RNG substreams a budget of `samples` is split into. A pure
/// function of the sample count, so the shard plan — and therefore the
/// merged estimate — is independent of how many threads execute it.
uint64_t NumSampleShards(uint64_t samples);

/// Naive sampling: draw `samples` assignments (variable v true with
/// probability probs[v]) and report the fraction satisfying `root`.
/// `ctx` may be null (sequential, no deadline).
Estimate NaiveMonteCarlo(FormulaManager* mgr, NodeId root,
                         const std::vector<double>& probs, uint64_t samples,
                         Rng* rng, ExecContext* ctx = nullptr);

/// Karp–Luby estimator for a DNF given as term lists (each term a
/// conjunction of positive variables): `KarpLubyDnfAdaptive` drawing one
/// batch of `samples`. An empty or zero-probability DNF estimates 0 with
/// no samples drawn; probabilities must lie in [0, 1].
/// `ctx` may be null (sequential, no deadline).
///
/// Each sample draws one term, then every variable of the DNF in VarId
/// order into a bitset, and tests each term on the bitset words its
/// variables fall in, so a sample costs the DNF's variables plus its total
/// term length however many words the bitset has. A variable's draw is
/// an integer comparison of `Next() >> 11` against a precomputed threshold
/// that decides exactly as `Rng::Bernoulli` does, so the sampler consumes
/// the same stream, and yields the same bits, as drawing each variable
/// with `Bernoulli`.
Result<Estimate> KarpLubyDnf(const std::vector<std::vector<VarId>>& terms,
                             const std::vector<double>& probs,
                             uint64_t samples, Rng* rng,
                             ExecContext* ctx = nullptr);

/// Tuning for the adaptive (anytime) Karp–Luby estimator.
struct AdaptiveSampleOptions {
  /// Hard cap on samples (the budget of a full, non-early-stopped run).
  uint64_t max_samples = 200000;
  /// Stop as soon as the running standard error falls to this target;
  /// 0 disables early stopping (the full budget is always drawn).
  double target_std_error = 0.0;
  /// Samples per batch; stopping conditions are evaluated between batches.
  /// 0 picks a default that keeps the shard plan parallel-friendly.
  uint64_t batch_samples = 0;
  /// Batches drawn before the std-error test may fire (guards against a
  /// fluky near-zero variance estimate on a handful of samples).
  uint64_t min_batches = 2;
};

/// Anytime Karp–Luby: draws `batch_samples`-sized batches and stops early
/// once `target_std_error` is reached or the context's deadline/cancel
/// signal fires, instead of always spending the full budget (Gatterbauer–
/// Suciu-style anytime inference). Each batch is itself sharded with the
/// thread-count-invariant plan of `NumSampleShards` and batches are merged
/// in batch order, so for a fixed seed the estimate of a *full* run (no early
/// stop) is bit-identical whether it ran on 1 worker or 64; an
/// early-stopped run is deterministic too, provided the stop came from the
/// std-error test rather than the wall clock.
Result<Estimate> KarpLubyDnfAdaptive(
    const std::vector<std::vector<VarId>>& terms,
    const std::vector<double>& probs, const AdaptiveSampleOptions& options,
    Rng* rng, ExecContext* ctx = nullptr);

}  // namespace pdb

#endif  // PDB_WMC_MONTECARLO_H_
