#include "storage/index_cache.h"

#include <functional>
#include <numeric>
#include <utility>

#include "exec/context.h"

namespace pdb {

size_t IndexCache::KeyHash::operator()(const Key& key) const {
  return std::hash<const void*>()(key.image) * 1315423911u +
         std::hash<size_t>()(key.col) + 0x9e3779b97f4a7c15ull;
}

IndexCache::IndexCache(IndexCacheOptions options) {
  size_t n = options.num_shards == 0 ? 1 : options.num_shards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const ColumnarIndex> IndexCache::GetOrBuildColumnarIndex(
    std::shared_ptr<const ColumnarRelation> image, size_t col, bool* built) {
  Key key{image.get(), col};
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
  auto index = std::make_shared<const ColumnarIndex>(std::move(image), col);
  shard.map.emplace(key, index);
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
    std::shared_ptr<const ColumnarRelation> image, size_t col,
    IndexCache* cache, ExecContext* exec) {
  bool built = true;
  std::shared_ptr<const ColumnarIndex> index =
      cache != nullptr
          ? cache->GetOrBuildColumnarIndex(std::move(image), col, &built)
          : std::make_shared<const ColumnarIndex>(std::move(image), col);
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
  const size_t probe = ProbedKeyPart(*image, key_cols);
  std::shared_ptr<const ColumnarIndex> index =
      ColumnarIndexFor(image, key_cols[probe], cache, exec);
  const uint32_t* bucket = nullptr;
  size_t count = 0;
  index->Lookup(codes[probe], &bucket, &count);
  for (size_t i = 0; i < count; ++i) {
    bool match = true;
    for (size_t p = 0; p < key_cols.size() && match; ++p) {
      match = p == probe || image->codes(key_cols[p])[bucket[i]] == codes[p];
    }
    if (match) rows.push_back(bucket[i]);
  }
  return rows;
}

}  // namespace pdb
