/// \file index_cache.h
/// \brief Session-lifetime cache of the join executor's columnar indexes.
///
/// The grounding engine (boolean/lineage.cc) runs over each relation's
/// columnar image and probes one `ColumnarIndex` per join step with bound
/// positions. Without this cache every query would rebuild those indexes
/// from scratch — O(rows) per query per atom — even when a session served
/// thousands of identical joins against an unchanged database. The cache
/// is keyed by (relation identity, key columns) and hands out
/// `shared_ptr<const ...>`, so a reader keeps its index alive across a
/// concurrent `Clear()` (generation invalidation) without locks on the
/// probe path of the index itself.
///
/// Concurrency follows the WmcCache idiom: the key space is partitioned
/// into mutex-striped shards, and a build happens inside the shard lock so
/// concurrent requests for the same index build it exactly once (the loser
/// of the race gets the winner's pointer). Builds for *different* indexes
/// only contend when they collide on a shard.
///
/// Lifecycle: the cache is owned by `Session`, invalidated with the same
/// generation discipline as the result and WMC caches (a database mutation
/// clears it), and relations are keyed by address. A relation is a heap
/// object shared by the copies of its copy-on-write `Database`, so its
/// address is stable until it is destroyed, and every copy sees the same
/// address. A mutation through `GetMutable` may clone a shared relation:
/// the clone gets a new address, and the old entries become unreachable
/// garbage that the same mutation's `Clear()` drops. A freed relation's
/// address can be reused by the next allocation, so per-query relations,
/// such as the unate rewrite's complements, must never be cached by
/// address: only relations of the session's own database are.

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

/// Aggregated counters of one `IndexCache`. Columnar images and columnar
/// code indexes both count here — they share the shards and the
/// generation-invalidation lifecycle.
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

/// Sharded, thread-safe cache of columnar images and code indexes keyed by
/// (relation address, key columns).
class IndexCache {
 public:
  explicit IndexCache(IndexCacheOptions options = {});

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// The dictionary-encoded columnar image of `relation` (the build itself
  /// is delegated to — and also cached on — the relation, so a rebuilt
  /// cache after `Clear()` reattaches to the existing image instead of
  /// re-encoding). When `built` is non-null it is set to whether this call
  /// created the entry (for per-query accounting). The returned pointer
  /// stays valid after `Clear()` for as long as the caller holds it.
  std::shared_ptr<const ColumnarRelation> GetOrBuildColumnar(
      const Relation& relation, bool* built = nullptr);

  /// The columnar code index of `relation` keyed on `key_cols`, built under
  /// the shard lock on first request; `built` and lifetime as above.
  std::shared_ptr<const ColumnarIndex> GetOrBuildColumnarIndex(
      const Relation& relation, const std::vector<size_t>& key_cols,
      bool* built = nullptr);

  /// Drops every cached index (readers holding shared_ptrs are unaffected).
  void Clear();

  IndexCacheStats stats() const;

 private:
  /// Entry flavours share the key space; `key_cols` is empty for the
  /// whole-relation columnar image.
  enum class Flavor : uint8_t { kColumnar, kColumnarIndex };

  struct Key {
    const Relation* relation;
    std::vector<size_t> key_cols;
    Flavor flavor = Flavor::kColumnar;
    bool operator==(const Key& other) const {
      return relation == other.relation && flavor == other.flavor &&
             key_cols == other.key_cols;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Shard {
    mutable std::mutex mu;
    // Type-erased so one shard map holds both flavours; the typed
    // getters cast back according to Key::flavor.
    std::unordered_map<Key, std::shared_ptr<const void>, KeyHash> map;
  };

  Shard& ShardFor(const Key& key);

  /// Looks up `key`, building via `build()` on a miss; counts hit/build.
  template <typename T, typename BuildFn>
  std::shared_ptr<const T> GetOrBuildEntry(Key key, bool* built,
                                           BuildFn&& build);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> hits_{0};
};

}  // namespace pdb

#endif  // PDB_STORAGE_INDEX_CACHE_H_
