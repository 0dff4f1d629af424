/// \file index_cache.h
/// \brief Cache of columnar indexes, and the one way the engines reach a
/// relation's rows by key.
///
/// The join executor (boolean/lineage.cc), the lifted engine's separator
/// support (lifted/lifted.cc) and the plan executor's scans
/// (plans/plan.cc) all read stored rows by key through a one-column
/// `ColumnarIndex`: a key probes the bucket of the column `ProbedKeyPart`
/// picks and checks its other columns row by row. Without the cache a
/// `Session` owns, every query would rebuild those indexes from scratch —
/// O(rows) per query per atom — even when a session served thousands of
/// identical queries against an unchanged database. The cache hands out
/// `shared_ptr<const ColumnarIndex>`, so a reader keeps its index alive
/// across a concurrent `Clear()` without locks on the probe path of the
/// index itself.
///
/// Concurrency follows the WmcCache idiom: the key space is partitioned
/// into mutex-striped shards, and a build happens inside the shard lock so
/// concurrent requests for the same index build it exactly once (the loser
/// of the race gets the winner's pointer). Builds for *different* indexes
/// only contend when they collide on a shard.
///
/// Lifecycle: an entry is keyed by the columnar image it was built from
/// (`Relation::columnar()`) and one column of it, so an image has at most
/// one index per column, shared by every key that probes that column. The
/// image is immutable and the entry's index holds it alive, so its address
/// cannot be reused while the entry exists: a key always names the exact
/// rows the index was built over. A mutated relation gets a new image and
/// therefore new keys; its old entries can no longer be reached and wait
/// for the next `Clear()`, which the session runs on every database
/// mutation. Relations that share an image, such as the copies of a
/// copy-on-write `Database` and the reweighted clones of a dissociation,
/// share its entries. The unate rewrite's complements exist for one query;
/// in the session cache they would pile up until the next mutation. The
/// lifted engine therefore keeps a second cache that lives for one call.
/// It holds every relation named like a complement (`IsComplementSymbol`,
/// which also matches a stored relation whose name ends in `__c`), and
/// every relation when the caller has no session cache, so each index is
/// built once per call rather than once per probe. Its builds and hits
/// count on the caller's `ExecContext` like the session cache's.

#ifndef PDB_STORAGE_INDEX_CACHE_H_
#define PDB_STORAGE_INDEX_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/columnar.h"
#include "storage/relation.h"

namespace pdb {

class ExecContext;

/// Aggregated counters of one `IndexCache`.
struct IndexCacheStats {
  uint64_t builds = 0;  ///< indexes constructed (cache misses)
  uint64_t hits = 0;    ///< requests served by an existing index
  size_t entries = 0;   ///< resident indexes across all shards
};

/// Tuning for an `IndexCache`.
struct IndexCacheOptions {
  /// Mutex stripe count; requests for different indexes contend only when
  /// they collide on a shard.
  size_t num_shards = 8;
};

/// Sharded, thread-safe cache of columnar indexes keyed by (columnar image,
/// column).
class IndexCache {
 public:
  explicit IndexCache(IndexCacheOptions options = {});

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// The index over column `col` of `image`, built under the shard lock on
  /// first request. When `built` is non-null it is set to whether this call
  /// built the index. The returned pointer stays valid after `Clear()` for
  /// as long as the caller holds it.
  std::shared_ptr<const ColumnarIndex> GetOrBuildColumnarIndex(
      std::shared_ptr<const ColumnarRelation> image, size_t col,
      bool* built = nullptr);

  /// Drops every cached index (readers holding shared_ptrs are unaffected).
  void Clear();

  IndexCacheStats stats() const;

 private:
  struct Key {
    const ColumnarRelation* image;
    size_t col;
    bool operator==(const Key& other) const {
      return image == other.image && col == other.col;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const ColumnarIndex>, KeyHash>
        map;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> hits_{0};
};

/// The index over column `col` of `image`: from `cache` when it is
/// non-null, otherwise built for this caller alone. Counts one index build
/// or cache hit on `exec` when it is non-null.
std::shared_ptr<const ColumnarIndex> ColumnarIndexFor(
    std::shared_ptr<const ColumnarRelation> image, size_t col,
    IndexCache* cache, ExecContext* exec);

/// Ids of `relation`'s rows whose columns `key_cols` hold the values `key`,
/// ascending, or every row when `key_cols` is empty: the bucket of
/// `ColumnarIndexFor` over the key's `ProbedKeyPart` column, filtered on
/// the other key columns.
std::vector<uint32_t> MatchingRows(const Relation& relation,
                                   const std::vector<size_t>& key_cols,
                                   const Tuple& key, IndexCache* cache,
                                   ExecContext* exec);

}  // namespace pdb

#endif  // PDB_STORAGE_INDEX_CACHE_H_
