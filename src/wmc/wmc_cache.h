/// \file wmc_cache.h
/// \brief Cross-query WMC memoization: a sharded, thread-safe cache of
/// weighted model counts keyed by canonical subformula signatures.
///
/// The paper's grounded-inference story (§7) rests on DPLL with formula
/// caching, but a `DpllCounter`'s local cache is keyed by manager-local
/// `NodeId`s and dies with the counter. This cache is the session-lifetime
/// complement — the cross-run memoization that Cachet-style component
/// caching (Sang et al.) and sharpSAT's hash-based component store get
/// their orders of magnitude from:
///
///  - keys are `FormulaManager::SignatureOf` canonical 128-bit structural
///    signatures, stable across managers, plus a 64-bit fingerprint of the
///    weights of the subformula's variable set — a WMC value is a pure
///    function of (unordered structure, per-variable weights), so a key
///    match means the cached double is *the* answer, bit for bit;
///  - the table is N-way sharded (mutex striping on the signature), so the
///    per-tuple fan-out of `QueryWithAnswers` and concurrent session
///    clients all publish and probe one cache without serialising on a
///    single lock;
///  - a `DpllCounter` probes it at its first subformulas of at least
///    `shared_cache_min_vars` variables, until the run has missed
///    `DpllCounter::kSharedMissBudget` times, and publishes exactly what it
///    probed. Keys contain VarIds, so a hit needs the same grounding
///    prefix and lands among a run's first probes: a repeated lineage at
///    the root, an answer fan-out's shared core at the second probe;
///  - each shard runs CLOCK (second-chance) eviction under its slice of a
///    configurable byte budget, so a long-lived session cannot grow the
///    cache without bound while hot entries survive;
///  - hits/misses/inserts/evictions are counted per shard and aggregated
///    on demand (`stats()`), feeding the session's `ExecReport`.
///
/// Like all hash-based component caching, soundness is probabilistic: two
/// distinct (formula, weights) pairs colliding on all 192 key bits would
/// alias. At the ~2^-64 birthday scale of realistic workloads this is far
/// below the hardware's undetected-error rate.

#ifndef PDB_WMC_WMC_CACHE_H_
#define PDB_WMC_WMC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "boolean/formula.h"
#include "wmc/weights.h"

namespace pdb {

/// 64-bit fingerprint of the weight pairs of `vars` (sorted VarIds, as
/// returned by `FormulaManager::VarsOf`). Encodes both the variable set and
/// each variable's exact (w, w̄) bits, so structurally identical formulas
/// evaluated under different weight maps can never alias in the cache.
uint64_t WeightFingerprint(std::span<const VarId> vars,
                           const WeightMap& weights);

/// Aggregated counters of a `WmcCache` (sum over shards).
struct WmcCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  /// Approximate resident bytes (entries × per-entry footprint).
  size_t bytes = 0;
};

/// Options for a `WmcCache`.
struct WmcCacheOptions {
  /// Number of mutex-striped shards (rounded up to at least 1).
  size_t num_shards = 16;
  /// Total byte budget across shards; each shard evicts under its slice.
  size_t max_bytes = size_t{64} << 20;
};

/// Sharded, thread-safe map from (signature, weight fingerprint) to a
/// weighted model count. All methods are safe to call concurrently.
class WmcCache {
 public:
  struct Key {
    FormulaSignature sig;
    uint64_t weight_fp = 0;

    bool operator==(const Key& o) const {
      return sig == o.sig && weight_fp == o.weight_fp;
    }
  };

  explicit WmcCache(WmcCacheOptions options = {});

  /// The cached count for `key`, marking the entry recently used; nullopt
  /// on miss.
  std::optional<double> Lookup(const Key& key);

  /// Publishes `value` under `key`, evicting cold entries if the shard is
  /// over budget. Re-inserting an existing key only refreshes its
  /// recency (values for one key are identical by construction).
  void Insert(const Key& key, double value);

  /// Drops every entry (counters survive). Used by the session on database
  /// mutation — hygiene rather than correctness: stale entries keep their
  /// weight fingerprints, so they could never serve a mismatched lookup.
  void Clear();

  /// Point-in-time copy of every entry, shard by shard. Feeds the durable
  /// layer's component store (`DurableDatabase::SpillWmcCache`) — keys are
  /// pure functions of (formula structure, weights), so exported entries
  /// stay valid across restarts and database mutations alike.
  std::vector<std::pair<Key, double>> Export() const;

  WmcCacheStats stats() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // The signature is already avalanched; fold in the fingerprint.
      return static_cast<size_t>(k.sig.hi ^ (k.sig.lo * 3) ^
                                 (k.weight_fp * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// One CLOCK slot: the entry plus its second-chance reference bit.
  struct Slot {
    Key key;
    double value = 0;
    bool referenced = false;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, size_t, KeyHash> index;  // key -> slot position
    std::vector<Slot> slots;
    size_t clock_hand = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[key.sig.lo % shards_.size()];
  }

  size_t slots_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pdb

#endif  // PDB_WMC_WMC_CACHE_H_
