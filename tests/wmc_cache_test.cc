// Tests for the cross-query WMC cache: canonical signature stability,
// weight fingerprints, sharded CLOCK eviction, and concurrent access (this
// file is also built under TSan in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "boolean/formula.h"
#include "util/random.h"
#include "wmc/dpll.h"
#include "wmc/weights.h"
#include "wmc/wmc_cache.h"

namespace pdb {
namespace {

// ---------------------------------------------------------------------------
// Canonical signatures
// ---------------------------------------------------------------------------

TEST(FormulaSignatureTest, StableAcrossBuildOrder) {
  // (x0 & x1) | (x2 & x3), built twice with children supplied in opposite
  // orders. The stored child order differs (it is NodeId order, which
  // tracks construction order), but the signature must not.
  FormulaManager a;
  NodeId fa = a.Or(a.And(a.Var(0), a.Var(1)), a.And(a.Var(2), a.Var(3)));
  FormulaManager b;
  NodeId fb = b.Or(b.And(b.Var(3), b.Var(2)), b.And(b.Var(1), b.Var(0)));
  EXPECT_EQ(a.SignatureOf(fa), b.SignatureOf(fb));
}

TEST(FormulaSignatureTest, StableAcrossInterningOrder) {
  // One random formula, built in two managers whose nodes were interned in
  // a different order: `a` interns unrelated nodes first and builds the
  // terms front to back, `b` builds them back to front with every term's
  // literals reversed. NodeIds differ between the two; the signature must
  // not.
  Rng rng(11);
  std::vector<std::vector<std::pair<VarId, bool>>> terms(6);
  for (auto& term : terms) {
    for (int l = 0; l < 3; ++l) {
      VarId v = static_cast<VarId>(rng.Uniform(10));
      term.emplace_back(v, rng.Bernoulli(0.3));
    }
  }
  auto build = [&](FormulaManager* m, bool reversed) {
    std::vector<NodeId> nodes;
    for (size_t t = 0; t < terms.size(); ++t) {
      const auto& term = terms[reversed ? terms.size() - 1 - t : t];
      std::vector<NodeId> lits;
      for (size_t l = 0; l < term.size(); ++l) {
        const auto& [v, negated] = term[reversed ? term.size() - 1 - l : l];
        lits.push_back(negated ? m->Not(m->Var(v)) : m->Var(v));
      }
      nodes.push_back(m->And(std::move(lits)));
    }
    return m->Or(std::move(nodes));
  };
  FormulaManager a;
  a.And(a.Var(40), a.Var(41));
  NodeId fa = build(&a, false);
  FormulaManager b;
  NodeId fb = build(&b, true);
  EXPECT_NE(fa, fb);
  EXPECT_EQ(a.SignatureOf(fa), b.SignatureOf(fb));
}

TEST(FormulaSignatureTest, DistinguishesStructure) {
  FormulaManager m;
  NodeId x = m.Var(0), y = m.Var(1);
  std::vector<FormulaSignature> sigs = {
      m.SignatureOf(m.True()),       m.SignatureOf(m.False()),
      m.SignatureOf(x),              m.SignatureOf(y),
      m.SignatureOf(m.Not(x)),       m.SignatureOf(m.And(x, y)),
      m.SignatureOf(m.Or(x, y)),     m.SignatureOf(m.And(x, m.Var(2))),
      m.SignatureOf(m.Not(m.And(x, y))),
  };
  for (size_t i = 0; i < sigs.size(); ++i) {
    for (size_t j = i + 1; j < sigs.size(); ++j) {
      EXPECT_FALSE(sigs[i] == sigs[j]) << "sig " << i << " == sig " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Weight fingerprints
// ---------------------------------------------------------------------------

TEST(WeightFingerprintTest, SensitiveToWeightsAndVarSet) {
  using Vars = std::vector<VarId>;
  WeightMap weights = WeightsFromProbabilities({0.1, 0.2, 0.3});
  uint64_t base = WeightFingerprint(Vars{0, 1}, weights);
  EXPECT_EQ(base, WeightFingerprint(Vars{0, 1}, weights));  // deterministic

  WeightMap nudged = weights;
  nudged[1].w_true += 1e-16;  // any bit flip must change the fingerprint
  EXPECT_NE(base, WeightFingerprint(Vars{0, 1}, nudged));
  EXPECT_NE(base, WeightFingerprint(Vars{0, 2}, weights));
  EXPECT_NE(base, WeightFingerprint(Vars{0, 1, 2}, weights));
  // Weights of variables outside the set are irrelevant.
  WeightMap other = weights;
  other[2].w_true = 0.9;
  EXPECT_EQ(base, WeightFingerprint(Vars{0, 1}, other));
}

// ---------------------------------------------------------------------------
// Cache behaviour
// ---------------------------------------------------------------------------

WmcCache::Key MakeKey(uint64_t i) {
  // Distinct, well-spread signatures; the value stored under a key is
  // derived from i so lookups can verify they got the right entry.
  return {{i * 0x9e3779b97f4a7c15ULL + 1, i * 0xc2b2ae3d27d4eb4fULL + 2}, i};
}

TEST(WmcCacheTest, LookupInsertAndCounters) {
  WmcCache cache({.num_shards = 4, .max_bytes = 1 << 20});
  WmcCache::Key key = MakeKey(7);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, 0.125);
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0.125);

  // Re-inserting an existing key refreshes recency, not the counters.
  cache.Insert(key, 0.125);
  WmcCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  cache.Clear();
  EXPECT_FALSE(cache.Lookup(key).has_value());
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.inserts, 1u);  // counters survive Clear
}

TEST(WmcCacheTest, EvictsUnderByteBudget) {
  constexpr size_t kBudget = 4 << 10;
  WmcCache cache({.num_shards = 1, .max_bytes = kBudget});
  constexpr uint64_t kKeys = 1000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    cache.Insert(MakeKey(i), static_cast<double>(i));
  }
  WmcCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, kKeys);
  EXPECT_LT(stats.entries, kKeys);
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_EQ(stats.evictions, kKeys - stats.entries);
  // Whatever survived still maps to its own value.
  size_t resident = 0;
  for (uint64_t i = 0; i < kKeys; ++i) {
    auto hit = cache.Lookup(MakeKey(i));
    if (!hit.has_value()) continue;
    ++resident;
    EXPECT_EQ(*hit, static_cast<double>(i));
  }
  EXPECT_EQ(resident, stats.entries);
}

TEST(WmcCacheTest, ClockGivesReferencedEntriesASecondChance) {
  // Discover the slot capacity of a one-shard cache empirically (it is a
  // function of an internal per-entry byte estimate).
  WmcCacheOptions options{.num_shards = 1, .max_bytes = 2 << 10};
  size_t capacity = 0;
  {
    WmcCache probe(options);
    for (uint64_t i = 0; probe.stats().evictions == 0; ++i) {
      probe.Insert(MakeKey(i), 0.0);
    }
    capacity = probe.stats().entries;
  }
  ASSERT_GE(capacity, 4u);

  WmcCache cache(options);
  for (uint64_t i = 0; i < capacity; ++i) {
    cache.Insert(MakeKey(i), static_cast<double>(i));
  }
  // First eviction sweeps every reference bit clear, then reclaims slot 0.
  cache.Insert(MakeKey(capacity), 0.0);
  // Touch one survivor: its reference bit is the only one set now.
  ASSERT_TRUE(cache.Lookup(MakeKey(2)).has_value());
  // Two more evictions pass the hand over cold neighbours and the touched
  // entry: the cold ones go, the touched one gets its second chance.
  cache.Insert(MakeKey(capacity + 1), 0.0);
  cache.Insert(MakeKey(capacity + 2), 0.0);
  EXPECT_TRUE(cache.Lookup(MakeKey(2)).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(1)).has_value());
}

TEST(WmcCacheTest, ConcurrentHammer) {
  // 8 threads race inserts and lookups over an overlapping key range on a
  // deliberately tiny cache, maximising eviction churn. Correctness: a hit
  // must always return the value that belongs to the key.
  WmcCache cache({.num_shards = 4, .max_bytes = 8 << 10});
  constexpr int kThreads = 8;
  constexpr uint64_t kKeyRange = 512;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::string> errors(kThreads);
  std::vector<uint64_t> lookups(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        uint64_t i = rng.Uniform(kKeyRange);
        WmcCache::Key key = MakeKey(i);
        if (rng.Bernoulli(0.5)) {
          cache.Insert(key, static_cast<double>(i));
        } else {
          ++lookups[t];
          auto hit = cache.Lookup(key);
          if (hit.has_value() && *hit != static_cast<double>(i)) {
            errors[t] = "lookup returned another key's value";
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "") << "thread " << t;
  uint64_t total_lookups = 0;
  for (uint64_t n : lookups) total_lookups += n;
  WmcCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, total_lookups);
  EXPECT_LE(stats.bytes, size_t{8} << 10);
}

// ---------------------------------------------------------------------------
// End-to-end: DpllCounter against a shared cache
// ---------------------------------------------------------------------------

TEST(WmcCacheTest, DpllSharedCacheHitIsBitIdentical) {
  // A hard (non-read-once) formula: (x0&x1)|(x1&x2)|(x2&x3)|(x3&x0).
  auto build = [](FormulaManager* m) {
    return m->Or({m->And(m->Var(0), m->Var(1)), m->And(m->Var(1), m->Var(2)),
                  m->And(m->Var(2), m->Var(3)),
                  m->And(m->Var(3), m->Var(0))});
  };
  WeightMap weights = WeightsFromProbabilities({0.3, 0.5, 0.7, 0.9});

  // Reference: no shared cache.
  FormulaManager m1;
  DpllCounter plain(&m1, weights, {});
  auto expected = plain.Compute(build(&m1));
  ASSERT_TRUE(expected.ok());

  WmcCache cache;
  DpllOptions with_cache;
  with_cache.shared_cache = &cache;
  with_cache.shared_cache_min_vars = 2;

  // Cold run populates the cache and must not perturb the result.
  FormulaManager m2;
  DpllCounter cold(&m2, weights, with_cache);
  auto first = cold.Compute(build(&m2));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, *expected);
  ASSERT_GT(cache.stats().inserts, 0u);

  // Warm run in a *fresh manager* (different NodeIds): the top-level probe
  // hits, so the whole count is served from the cache, bit for bit.
  FormulaManager m3;
  DpllCounter warm(&m3, weights, with_cache);
  auto second = warm.Compute(build(&m3));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *expected);
  EXPECT_GT(warm.stats().shared_hits, 0u);
  EXPECT_EQ(warm.stats().decisions, 0u);  // answered without any branching
}

// H0's lineage over the complete n x n instance: R_x = x, T_y = n + y,
// S_xy = 2n + x * n + y, one term R_x & S_xy & T_y per pair.
NodeId H0Lineage(FormulaManager* m, VarId n) {
  std::vector<NodeId> terms;
  for (VarId x = 0; x < n; ++x) {
    for (VarId y = 0; y < n; ++y) {
      terms.push_back(m->And(
          {m->Var(x), m->Var(2 * n + x * n + y), m->Var(n + y)}));
    }
  }
  return m->Or(std::move(terms));
}

TEST(WmcCacheTest, DpllStopsProbingAfterItsMissBudget) {
  constexpr VarId kN = 5;
  Rng rng(13);
  std::vector<double> probs;
  for (VarId v = 0; v < 2 * kN + kN * kN; ++v) {
    probs.push_back(0.1 + 0.8 * rng.NextDouble());
  }
  const WeightMap weights = WeightsFromProbabilities(probs);

  FormulaManager m1;
  DpllCounter plain(&m1, weights, {});
  auto expected = plain.Compute(H0Lineage(&m1, kN));
  ASSERT_TRUE(expected.ok());

  // A cold run misses exactly its budget, then stops probing: the search
  // goes on and publishes only the nodes it probed.
  WmcCache cache;
  DpllOptions with_cache;
  with_cache.shared_cache = &cache;
  FormulaManager m2;
  DpllCounter cold(&m2, weights, with_cache);
  auto first = cold.Compute(H0Lineage(&m2, kN));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, *expected);
  EXPECT_EQ(cold.stats().shared_misses, DpllCounter::kSharedMissBudget);
  EXPECT_EQ(cold.stats().shared_hits, 0u);
  EXPECT_EQ(cold.stats().decisions, plain.stats().decisions);
  EXPECT_LE(cache.stats().inserts, DpllCounter::kSharedMissBudget);

  // The root was the first probe, so a fresh manager hits it at once.
  FormulaManager m3;
  DpllCounter warm(&m3, weights, with_cache);
  auto second = warm.Compute(H0Lineage(&m3, kN));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *expected);
  EXPECT_EQ(warm.stats().shared_hits, 1u);
  EXPECT_EQ(warm.stats().shared_misses, 0u);
  EXPECT_EQ(warm.stats().decisions, 0u);
}

TEST(WmcCacheTest, DifferentWeightsNeverShareEntries) {
  auto build = [](FormulaManager* m) {
    return m->Or(m->And(m->Var(0), m->Var(1)), m->And(m->Var(1), m->Var(2)));
  };
  WmcCache cache;
  DpllOptions with_cache;
  with_cache.shared_cache = &cache;
  with_cache.shared_cache_min_vars = 2;

  FormulaManager m1;
  DpllCounter a(&m1, WeightsFromProbabilities({0.3, 0.5, 0.7}), with_cache);
  auto first = a.Compute(build(&m1));
  ASSERT_TRUE(first.ok());

  // Same structure, different weights: must miss the cache and produce the
  // weights' own answer.
  WeightMap other = WeightsFromProbabilities({0.2, 0.4, 0.6});
  FormulaManager m2;
  DpllCounter b(&m2, other, with_cache);
  auto second = b.Compute(build(&m2));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(b.stats().shared_hits, 0u);

  FormulaManager m3;
  DpllCounter plain(&m3, other, {});
  auto expected = plain.Compute(build(&m3));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*second, *expected);
}

}  // namespace
}  // namespace pdb
