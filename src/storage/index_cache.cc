#include "storage/index_cache.h"

#include <functional>
#include <utility>

namespace pdb {

size_t IndexCache::KeyHash::operator()(const Key& key) const {
  size_t h = std::hash<const void*>()(key.relation);
  h = h * 1315423911u + static_cast<size_t>(key.flavor);
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

IndexCache::Shard& IndexCache::ShardFor(const Key& key) {
  return *shards_[KeyHash()(key) % shards_.size()];
}

template <typename T, typename BuildFn>
std::shared_ptr<const T> IndexCache::GetOrBuildEntry(Key key, bool* built,
                                                     BuildFn&& build) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (built != nullptr) *built = false;
    return std::static_pointer_cast<const T>(it->second);
  }
  // Build inside the shard lock: concurrent requests for the same index
  // build it exactly once, and requests for other indexes only stall when
  // they collide on this shard.
  std::shared_ptr<const T> entry = build();
  shard.map.emplace(std::move(key), entry);
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (built != nullptr) *built = true;
  return entry;
}

std::shared_ptr<const ColumnarRelation> IndexCache::GetOrBuildColumnar(
    const Relation& relation, bool* built) {
  Key key{&relation, {}, Flavor::kColumnar};
  return GetOrBuildEntry<ColumnarRelation>(std::move(key), built, [&] {
    return relation.columnar();
  });
}

std::shared_ptr<const ColumnarIndex> IndexCache::GetOrBuildColumnarIndex(
    const Relation& relation, const std::vector<size_t>& key_cols,
    bool* built) {
  Key key{&relation, key_cols, Flavor::kColumnarIndex};
  return GetOrBuildEntry<ColumnarIndex>(std::move(key), built, [&] {
    return std::make_shared<const ColumnarIndex>(relation.columnar(),
                                                 key_cols);
  });
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

}  // namespace pdb
