/// \file parallel.h
/// \brief `ParallelFor` / `ParallelMap` over an `ExecContext`'s pool.
///
/// The engine's parallelism — Monte Carlo and Karp–Luby sample shards and
/// the per-answer fan-out — is expressed exclusively through these
/// helpers, which keep two invariants the inference code relies on:
///
///  1. **Caller participation.** The calling thread claims loop indices
///     alongside the pool workers, so a `ParallelFor` nested inside a pool
///     task can never deadlock (the caller always makes progress even when
///     every worker is busy), and a context without a pool degrades to a
///     plain sequential loop.
///  2. **Deterministic merging.** `ParallelMap` materialises every body
///     result in index order, so a caller that folds them on its own
///     thread gets a bit-identical result no matter how indices were
///     interleaved across threads. Combined with per-shard RNG substreams
///     (`Rng::Split`), Monte Carlo estimates are invariant to thread count.
///
/// Bodies are responsible for their own cooperative cancellation: every
/// body is invoked exactly once, and long-running bodies poll
/// `ExecContext::ShouldStop()` and return early.

#ifndef PDB_EXEC_PARALLEL_H_
#define PDB_EXEC_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/context.h"
#include "exec/thread_pool.h"

namespace pdb {

/// Runs `body(i)` exactly once for every i in [0, n), using `ctx`'s pool
/// when present (sequentially otherwise). Blocks until all bodies finished.
/// `ctx` may be null. Bodies must be thread-safe with respect to each other.
void ParallelFor(ExecContext* ctx, size_t n,
                 const std::function<void(size_t)>& body);

/// Maps `fn` over [0, n) in parallel and returns the results in index
/// order. `T` must be default-constructible.
template <typename T, typename Fn>
std::vector<T> ParallelMap(ExecContext* ctx, size_t n, const Fn& fn) {
  std::vector<T> out(n);
  ParallelFor(ctx, n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace pdb

#endif  // PDB_EXEC_PARALLEL_H_
