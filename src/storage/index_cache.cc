#include "storage/index_cache.h"

#include <functional>
#include <numeric>
#include <utility>

#include "exec/context.h"

namespace pdb {

size_t IndexCache::KeyHash::operator()(const Key& key) const {
  size_t h = std::hash<const void*>()(key.image);
  for (size_t col : key.key_cols) {
    h = h * 1315423911u + std::hash<size_t>()(col) + 0x9e3779b97f4a7c15ull;
  }
  return h;
}

IndexCache::IndexCache(IndexCacheOptions options) {
  size_t n = options.num_shards == 0 ? 1 : options.num_shards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const ColumnarIndex> IndexCache::GetOrBuildColumnarIndex(
    const Relation& relation, const std::vector<size_t>& key_cols,
    bool* built) {
  std::shared_ptr<const ColumnarRelation> image = relation.columnar();
  Key key{image.get(), key_cols};
  Shard& shard = *shards_[KeyHash()(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (built != nullptr) *built = false;
    return it->second;
  }
  // Build inside the shard lock: concurrent requests for the same index
  // build it exactly once, and requests for other indexes only stall when
  // they collide on this shard.
  auto index = std::make_shared<const ColumnarIndex>(std::move(image),
                                                     key_cols);
  shard.map.emplace(std::move(key), index);
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (built != nullptr) *built = true;
  return index;
}

void IndexCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
  }
}

IndexCacheStats IndexCache::stats() const {
  IndexCacheStats stats;
  stats.builds = builds_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->map.size();
  }
  return stats;
}

std::shared_ptr<const ColumnarIndex> ColumnarIndexFor(
    const Relation& relation, const std::vector<size_t>& key_cols,
    IndexCache* cache, ExecContext* exec) {
  bool built = true;
  std::shared_ptr<const ColumnarIndex> index =
      cache != nullptr
          ? cache->GetOrBuildColumnarIndex(relation, key_cols, &built)
          : std::make_shared<const ColumnarIndex>(relation.columnar(),
                                                  key_cols);
  if (exec != nullptr) {
    exec->Add(built ? ExecCounter::kIndexBuilds : ExecCounter::kIndexCacheHits,
              1);
  }
  return index;
}

std::vector<uint32_t> MatchingRows(const Relation& relation,
                                   const std::vector<size_t>& key_cols,
                                   const Tuple& key, IndexCache* cache,
                                   ExecContext* exec) {
  std::vector<uint32_t> rows;
  if (key_cols.empty()) {
    rows.resize(relation.size());
    std::iota(rows.begin(), rows.end(), 0u);
    return rows;
  }
  std::shared_ptr<const ColumnarRelation> image = relation.columnar();
  std::vector<uint32_t> codes(key.size());
  for (size_t p = 0; p < key.size(); ++p) {
    codes[p] = image->CodeOf(key_cols[p], key[p]);
    // A value no row holds: nothing matches.
    if (codes[p] == ColumnarRelation::kNoCode) return rows;
  }
  std::shared_ptr<const ColumnarIndex> index =
      ColumnarIndexFor(relation, key_cols, cache, exec);
  const uint32_t* bucket = nullptr;
  size_t count = 0;
  index->Lookup(codes.data(), &bucket, &count);
  rows.assign(bucket, bucket + count);
  return rows;
}

}  // namespace pdb
