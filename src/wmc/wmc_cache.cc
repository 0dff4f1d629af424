#include "wmc/wmc_cache.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace pdb {

namespace {

/// splitmix64 finalizer (same avalanche core as the signature mixing).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Charged per entry: the slot itself plus the index bucket/node overhead
/// of the unordered_map (pointer-chained buckets on the common ABI).
constexpr size_t kEntryBytes =
    sizeof(WmcCache::Key) + sizeof(double) + /*clock+index overhead=*/64;

}  // namespace

uint64_t WeightFingerprint(std::span<const VarId> vars,
                           const WeightMap& weights) {
  uint64_t fp = 0x51afd7ed558ccd00ULL;
  for (VarId v : vars) {
    PDB_CHECK(v < weights.size());
    fp = Mix64(fp ^ v);
    fp = Mix64(fp + std::bit_cast<uint64_t>(weights[v].w_true));
    fp = Mix64(fp ^ std::bit_cast<uint64_t>(weights[v].w_false));
  }
  return fp;
}

WmcCache::WmcCache(WmcCacheOptions options) {
  size_t shards = std::max<size_t>(1, options.num_shards);
  size_t shard_bytes = options.max_bytes / shards;
  slots_per_shard_ = std::max<size_t>(1, shard_bytes / kEntryBytes);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::optional<double> WmcCache::Lookup(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  Slot& slot = shard.slots[it->second];
  slot.referenced = true;
  return slot.value;
}

void WmcCache::Insert(const Key& key, double value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.slots[it->second].referenced = true;
    return;
  }
  ++shard.inserts;
  if (shard.slots.size() < slots_per_shard_) {
    shard.index.emplace(key, shard.slots.size());
    shard.slots.push_back({key, value, true});
    return;
  }
  // CLOCK sweep: give referenced entries a second chance, reuse the first
  // cold slot. Bounded — after one full lap every reference bit is clear,
  // so the sweep terminates within two laps.
  for (;;) {
    Slot& candidate = shard.slots[shard.clock_hand];
    if (candidate.referenced) {
      candidate.referenced = false;
      shard.clock_hand = (shard.clock_hand + 1) % shard.slots.size();
      continue;
    }
    shard.index.erase(candidate.key);
    ++shard.evictions;
    shard.index.emplace(key, shard.clock_hand);
    candidate = {key, value, true};
    shard.clock_hand = (shard.clock_hand + 1) % shard.slots.size();
    return;
  }
}

std::vector<std::pair<WmcCache::Key, double>> WmcCache::Export() const {
  std::vector<std::pair<Key, double>> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.reserve(out.size() + shard->slots.size());
    for (const Slot& slot : shard->slots) {
      out.emplace_back(slot.key, slot.value);
    }
  }
  return out;
}

void WmcCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.clear();
    shard->slots.clear();
    shard->clock_hand = 0;
  }
}

WmcCacheStats WmcCache::stats() const {
  WmcCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.inserts += shard->inserts;
    total.evictions += shard->evictions;
    total.entries += shard->slots.size();
  }
  total.bytes = total.entries * kEntryBytes;
  return total;
}

}  // namespace pdb
