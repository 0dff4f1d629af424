// Session tests: shared pool, cross-query result cache + invalidation,
// cumulative accounting, and an 8-client concurrency stress run (this file
// is also built under TSan in CI).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/pdb.h"
#include "core/session.h"
#include "storage/durable_db.h"
#include "storage/env.h"
#include "storage/write_batch.h"
#include "test_common.h"
#include "util/random.h"

namespace pdb {
namespace {

/// Complete bipartite H0 instance (R(i), S(i,j), T(j) over [n] x [n]) whose
/// query R(x), S(x,y), T(y) is non-hierarchical, hence #P-hard for exact
/// methods.
Database HardDatabase(size_t n) {
  Database db;
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  Relation t("T", Schema::Anonymous(1));
  Rng rng(3);
  auto prob = [&] { return 0.1 + 0.8 * rng.NextDouble(); };
  for (size_t i = 1; i <= n; ++i) {
    PDB_CHECK(r.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
    PDB_CHECK(t.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
    for (size_t j = 1; j <= n; ++j) {
      PDB_CHECK(s.AddTuple({Value(static_cast<int64_t>(i)),
                            Value(static_cast<int64_t>(j))},
                           prob())
                    .ok());
    }
  }
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

const char* kUnsafeQuery = "R(x), S(x,y), T(y)";
const char* kSafeQuery = "R(x), S(x,y)";
/// Safe with a bound constant: the lifted engine probes an index on S.
const char* kBoundSafeQuery = "S(2,y), T(y)";

TEST(SessionTest, MatchesPerQueryPathBitForBit) {
  ProbDatabase pdb(HardDatabase(4));
  Session session(&pdb, {.num_threads = 4});
  for (const char* query : {kSafeQuery, kUnsafeQuery}) {
    QueryOptions options;
    options.exec.num_threads = 4;
    auto direct = pdb.Query(query, options);
    auto via_session = session.Query(query, options);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(via_session.ok());
    EXPECT_EQ(direct->probability, via_session->probability);
    EXPECT_EQ(direct->method, via_session->method);
    EXPECT_EQ(direct->exact, via_session->exact);
  }
}

TEST(SessionTest, SequentialSessionHasNoPool) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  EXPECT_EQ(session.num_threads(), 1);
  EXPECT_EQ(session.pool(), nullptr);
  auto answer = session.Query(kUnsafeQuery);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->report.num_threads, 1);
}

TEST(SessionTest, SharedPoolWidthShowsUpInReports) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 4});
  EXPECT_EQ(session.num_threads(), 4);
  ASSERT_NE(session.pool(), nullptr);
  QueryOptions options;
  options.exec.num_threads = 4;  // != 1: use the session pool
  auto answer = session.Query(kUnsafeQuery, options);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->report.num_threads, 4);
}

TEST(SessionTest, ResultCacheServesRepeatedQueries) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  auto first = session.Query(kUnsafeQuery);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->exact);
  EXPECT_EQ(session.result_cache_hits(), 0u);
  EXPECT_EQ(session.cache_size(), 1u);

  auto second = session.Query(kUnsafeQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->probability, first->probability);
  EXPECT_EQ(session.result_cache_hits(), 1u);
  EXPECT_EQ(session.queries_served(), 2u);
  EXPECT_NE(second->explanation.find("session result cache hit"),
            std::string::npos);
  // The cached answer ran nothing: its per-query report is fresh.
  EXPECT_EQ(second->report.samples_drawn, 0u);
  EXPECT_EQ(second->report.cache_hits, 0u);
}

TEST(SessionTest, DatabaseMutationInvalidatesCache) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  ASSERT_TRUE(session.Query(kUnsafeQuery).ok());
  EXPECT_EQ(session.cache_size(), 1u);

  // Adding a relation bumps the generation; the stale entry must not be
  // served even though the sentence text is unchanged.
  Relation extra("V", Schema::Anonymous(1));
  ASSERT_TRUE(extra.AddTuple({Value(static_cast<int64_t>(1))}, 0.5).ok());
  ASSERT_TRUE(pdb.AddRelation(std::move(extra)).ok());

  auto after = session.Query(kUnsafeQuery);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(session.result_cache_hits(), 0u);
  EXPECT_EQ(session.cache_size(), 1u);  // stale entries dropped, re-filled

  session.InvalidateCache();
  EXPECT_EQ(session.cache_size(), 0u);
}

TEST(SessionTest, FailedAddRelationDoesNotInvalidateCache) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  ASSERT_TRUE(session.Query(kUnsafeQuery).ok());
  EXPECT_EQ(session.cache_size(), 1u);
  uint64_t generation = pdb.generation();

  // A duplicate relation is rejected and changes nothing: the generation
  // must not move, and the cached entry stays servable.
  Relation dup("R", Schema::Anonymous(1));
  ASSERT_TRUE(dup.AddTuple({Value(static_cast<int64_t>(1))}, 0.5).ok());
  EXPECT_FALSE(pdb.AddRelation(std::move(dup)).ok());
  EXPECT_EQ(pdb.generation(), generation);

  ASSERT_TRUE(session.Query(kUnsafeQuery).ok());
  EXPECT_EQ(session.result_cache_hits(), 1u);
}

TEST(SessionTest, QueryWithAnswersHonorsDeadline) {
  // Head variable z comes from U, so every candidate's residual query
  // still contains the non-hierarchical (#P-hard) R-S-T core. With a
  // millisecond deadline each inner query must degrade to Monte Carlo via
  // the deadline (not by grinding through the full decision budget): at
  // n = 11 exact DPLL on the core needs about 50 ms, ten times the 5 ms.
  Database db = HardDatabase(11);
  Relation u("U", Schema::Anonymous(1));
  ASSERT_TRUE(u.AddTuple({Value(static_cast<int64_t>(1))}, 0.9).ok());
  ASSERT_TRUE(u.AddTuple({Value(static_cast<int64_t>(2))}, 0.8).ok());
  ASSERT_TRUE(db.AddRelation(std::move(u)).ok());
  ProbDatabase pdb(std::move(db));
  ConjunctiveQuery cq({Atom("U", {Term::Var("z")}),
                       Atom("R", {Term::Var("x")}),
                       Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("T", {Term::Var("y")})});
  Session session(&pdb, {.num_threads = 2});
  QueryOptions options;
  options.exec.num_threads = 2;
  options.exec.deadline_ms = 5;
  options.monte_carlo_samples = 2000;
  auto answers = session.QueryWithAnswers(cq, {"z"}, options);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 2u);
  for (size_t i = 0; i < answers->size(); ++i) {
    EXPECT_GT(answers->prob(i), 0.0);
    EXPECT_LT(answers->prob(i), 1.0);
  }
  ExecReport total = session.CumulativeReport();
  // The deadline actually fired inside the inner queries (if it were
  // silently dropped, DPLL would instead exhaust the decision budget and
  // this flag would stay false).
  EXPECT_TRUE(total.deadline_exceeded);
  EXPECT_GT(total.samples_drawn, 0u);
}

// Every answer tuple of U(z), R(x), S(x,y), T(y) conjoins its own U(z_i)
// with the same R-S-T core. DPLL probes that core second, within its
// shared-cache miss budget, so each tuple after the first finds it.
TEST(SessionTest, FanOutHitsTheSharedCore) {
  Database db = HardDatabase(4);
  Relation u("U", Schema::Anonymous(1));
  constexpr size_t kHeads = 8;
  for (size_t i = 1; i <= kHeads; ++i) {
    ASSERT_TRUE(
        u.AddTuple({Value(static_cast<int64_t>(i))}, 0.1 + 0.05 * i).ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(u)).ok());
  ProbDatabase pdb(std::move(db));
  ConjunctiveQuery cq({Atom("U", {Term::Var("z")}),
                       Atom("R", {Term::Var("x")}),
                       Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("T", {Term::Var("y")})});
  Session shared(&pdb, {.num_threads = 1, .cache_results = false});
  Session plain(&pdb, {.num_threads = 1,
                       .cache_results = false,
                       .share_wmc_cache = false});
  auto with_cache = shared.QueryWithAnswers(cq, {"z"});
  auto without_cache = plain.QueryWithAnswers(cq, {"z"});
  ASSERT_TRUE(with_cache.ok());
  ASSERT_TRUE(without_cache.ok());
  ASSERT_EQ(with_cache->size(), kHeads);
  ASSERT_EQ(without_cache->size(), kHeads);
  EXPECT_GE(shared.wmc_cache_stats().hits, kHeads - 1);
  for (size_t i = 0; i < kHeads; ++i) {
    EXPECT_EQ(with_cache->tuple(i), without_cache->tuple(i));
    EXPECT_EQ(with_cache->prob(i), without_cache->prob(i));
  }
}

TEST(SessionTest, ApproximateAnswersAreNotCached) {
  ProbDatabase pdb(HardDatabase(8));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions options;
  options.max_dpll_decisions = 100;  // force the Monte Carlo path
  options.monte_carlo_samples = 5000;
  auto answer = session.Query(kUnsafeQuery, options);
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->exact);
  EXPECT_EQ(session.cache_size(), 0u);
}

// The copy-on-write catalog's bar: no query path deep-copies a relation it
// does not modify. Relation::CopyCount() counts every deep copy in the
// process.
TEST(SessionTest, QueriesAndDurableIngestCopyNoRelation) {
  MemEnv mem;
  DurableOptions durable_options;
  durable_options.env = &mem;
  auto durable = DurableDatabase::Open("/data", durable_options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  const Database hard = HardDatabase(4);
  for (const std::string& name : hard.RelationNames()) {
    ASSERT_TRUE((*durable)->AddRelation(**hard.Get(name)).ok());
  }
  Session session(&(*durable)->pdb(), {.num_threads = 1});
  const uint64_t before = Relation::CopyCount();

  auto safe = session.Query(kSafeQuery);
  ASSERT_TRUE(safe.ok()) << safe.status().ToString();
  EXPECT_EQ(safe->method, InferenceMethod::kLifted);
  auto unsafe = session.Query(kUnsafeQuery);
  ASSERT_TRUE(unsafe.ok()) << unsafe.status().ToString();
  EXPECT_EQ(unsafe->method, InferenceMethod::kGroundedExact);
  auto answers =
      session.QuerySqlAnswers("SELECT R.a0 FROM R, S WHERE R.a0 = S.a0");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 4u);

  // A durable ingest batch into an existing relation applies in place.
  const Relation* s_before = *(*durable)->pdb().database().Get("S");
  WriteBatch batch;
  batch.Insert("S", {Value(int64_t{1}), Value(int64_t{99})}, 0.5);
  batch.Insert("S", {Value(int64_t{2}), Value(int64_t{99})}, 0.5);
  ASSERT_TRUE((*durable)->ApplyBatch(&batch).ok());
  EXPECT_EQ(*(*durable)->pdb().database().Get("S"), s_before);
  EXPECT_EQ(s_before->size(), 18u);

  // The mutation invalidated the cached answer: this one is recomputed.
  auto after = session.Query(kSafeQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after->probability, safe->probability);
  EXPECT_EQ(Relation::CopyCount(), before);
}

TEST(SessionTest, SampledAnswerCopiesOnlyDissociatedRelations) {
  ProbDatabase pdb(HardDatabase(8));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions options;
  options.max_dpll_decisions = 100;  // force plan bounds and Karp-Luby
  options.monte_carlo_samples = 5000;
  const uint64_t before = Relation::CopyCount();
  auto answer = session.Query(kUnsafeQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method, InferenceMethod::kMonteCarlo);
  EXPECT_NE(answer->explanation.find("plan bounds"), std::string::npos);
  // The lower-bound dissociation changes R and T, whose tuples occur in 8
  // lineage terms each, and never S, whose tuples occur once: one clone of
  // R and one of T.
  EXPECT_EQ(Relation::CopyCount(), before + 2);
}

TEST(SessionTest, CumulativeReportAggregatesAcrossQueries) {
  ProbDatabase pdb(HardDatabase(8));
  Session session(&pdb, {.num_threads = 1, .cache_results = false});
  QueryOptions mc;
  mc.max_dpll_decisions = 100;
  mc.monte_carlo_samples = 5000;
  auto sampled = session.Query(kUnsafeQuery, mc);
  ASSERT_TRUE(sampled.ok());
  ASSERT_GT(sampled->report.samples_drawn, 0u);

  auto lifted = session.Query(kSafeQuery);
  ASSERT_TRUE(lifted.ok());
  EXPECT_EQ(lifted->method, InferenceMethod::kLifted);
  // Per-query isolation: the lifted query drew no samples even though the
  // session as a whole did.
  EXPECT_EQ(lifted->report.samples_drawn, 0u);

  ExecReport total = session.CumulativeReport();
  EXPECT_EQ(total.samples_drawn, sampled->report.samples_drawn);
  EXPECT_EQ(session.queries_served(), 2u);
}

TEST(SessionTest, QueryWithAnswersMatchesPerQueryPath) {
  ProbDatabase pdb(HardDatabase(4));
  ConjunctiveQuery cq({Atom("R", {Term::Var("x")}),
                       Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("T", {Term::Var("y")})});
  Session session(&pdb, {.num_threads = 4});
  QueryOptions options;
  options.exec.num_threads = 4;
  auto direct = pdb.QueryWithAnswers(cq, {"x"}, options);
  auto via_session = session.QueryWithAnswers(cq, {"x"}, options);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_session.ok());
  ASSERT_EQ(direct->size(), via_session->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(direct->tuple(i), via_session->tuple(i));
    EXPECT_EQ(direct->prob(i), via_session->prob(i));
  }
}

// ---------------------------------------------------------------------------
// Concurrency stress: 8 client threads, one session (run under TSan in CI)
// ---------------------------------------------------------------------------

TEST(SessionStressTest, EightClientsShareOneSession) {
  ProbDatabase pdb(HardDatabase(4));
  QueryOptions exact;
  exact.exec.num_threads = 4;
  QueryOptions sampled = exact;
  sampled.max_dpll_decisions = 50;  // force Monte Carlo
  sampled.monte_carlo_samples = 4000;

  // Expected values, computed up front on a single thread. Every engine is
  // deterministic (Monte Carlo shards by sample count, not thread count),
  // so the concurrent answers must be bit-identical.
  auto expect_safe = pdb.Query(kSafeQuery, exact);
  auto expect_hard = pdb.Query(kUnsafeQuery, exact);
  auto expect_mc = pdb.Query(kUnsafeQuery, sampled);
  auto expect_bound = pdb.Query(kBoundSafeQuery, exact);
  ASSERT_TRUE(expect_safe.ok());
  ASSERT_TRUE(expect_hard.ok());
  ASSERT_TRUE(expect_mc.ok());
  ASSERT_TRUE(expect_bound.ok());
  ASSERT_EQ(expect_safe->method, InferenceMethod::kLifted);
  ASSERT_EQ(expect_mc->method, InferenceMethod::kMonteCarlo);
  ASSERT_EQ(expect_bound->method, InferenceMethod::kLifted);

  // Result cache off so every client query really executes (maximal
  // contention). The shared WMC cache is off too: it would let the
  // budget-starved "forced Monte Carlo" query finish exactly once another
  // client's exact run warmed it, which is the cache doing its job but not
  // what this test is about (SharedWmcCacheStress covers that setup).
  Session session(&pdb, {.num_threads = 4,
                         .cache_results = false,
                         .share_wmc_cache = false});
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        int kind = (c + q) % 4;
        auto check = [&](const QueryAnswer& expected, const char* text,
                         const QueryOptions& options,
                         bool expect_samples) {
          auto answer = session.Query(text, options);
          if (!answer.ok()) {
            errors[c] = answer.status().ToString();
            return;
          }
          if (answer->probability != expected.probability ||
              answer->method != expected.method) {
            errors[c] = "answer diverged from single-threaded expectation";
          }
          // Per-query report isolation: sampling counters must never bleed
          // from a concurrent Monte Carlo query into an exact one.
          if (expect_samples != (answer->report.samples_drawn > 0)) {
            errors[c] = "per-query ExecReport not isolated";
          }
        };
        if (kind == 0) {
          check(*expect_safe, kSafeQuery, exact, /*expect_samples=*/false);
        } else if (kind == 1) {
          check(*expect_hard, kUnsafeQuery, exact, /*expect_samples=*/false);
        } else if (kind == 2) {
          check(*expect_mc, kUnsafeQuery, sampled, /*expect_samples=*/true);
        } else {
          check(*expect_bound, kBoundSafeQuery, exact,
                /*expect_samples=*/false);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(errors[c], "") << "client " << c;

  EXPECT_EQ(session.queries_served(),
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  ExecReport total = session.CumulativeReport();
  // 12 of the 48 client queries took the Monte Carlo path; all of their
  // samples (and only theirs) aggregate into the session report.
  uint64_t mc_queries = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int q = 0; q < kQueriesPerClient; ++q) {
      if ((c + q) % 4 == 2) ++mc_queries;
    }
  }
  EXPECT_EQ(total.samples_drawn,
            mc_queries * expect_mc->report.samples_drawn);
}

TEST(SessionStressTest, ConcurrentCachedQueriesAgree) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 2});
  auto expected = pdb.Query(kUnsafeQuery);
  ASSERT_TRUE(expected.ok());
  constexpr int kClients = 8;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < 4; ++q) {
        auto answer = session.Query(kUnsafeQuery);
        if (!answer.ok()) {
          errors[c] = answer.status().ToString();
        } else if (answer->probability != expected->probability) {
          errors[c] = "cached answer diverged";
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(errors[c], "") << "client " << c;
  EXPECT_EQ(session.queries_served(), 32u);
  // At most a handful of misses before the cache takes over; every entry
  // keys the same sentence, so the cache holds exactly one result.
  EXPECT_EQ(session.cache_size(), 1u);
  EXPECT_GT(session.result_cache_hits(), 0u);
}

TEST(SessionTest, LruEvictionKeepsHotEntries) {
  // Four distinct safe queries against a 3-entry cache. The hot query is
  // re-touched after every one-off, so the LRU policy must evict the stale
  // one-offs and never the hot entry. (The pre-LRU cache simply stopped
  // inserting at capacity, so recency made no difference.)
  ProbDatabase pdb(HardDatabase(4));
  Session session(&pdb, {.num_threads = 1, .max_cache_entries = 3});
  const std::string hot = kSafeQuery;
  const std::vector<std::string> one_offs = {
      "R(x), S(x,y), T(y)", "S(x,y), T(y)", "R(x), T(y)", "S(x,y)"};
  ASSERT_TRUE(session.Query(hot).ok());
  for (const std::string& q : one_offs) {
    ASSERT_TRUE(session.Query(q).ok());
    ASSERT_TRUE(session.Query(hot).ok());  // keep the hot key most-recent
  }
  EXPECT_EQ(session.cache_size(), 3u);
  uint64_t hits_before = session.result_cache_hits();
  ASSERT_TRUE(session.Query(hot).ok());
  // The hot query survived all four evictions: this lookup is a pure hit.
  EXPECT_EQ(session.result_cache_hits(), hits_before + 1);
}

TEST(SessionTest, ZeroCapacityCacheNeverStoresResults) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1, .max_cache_entries = 0});
  ASSERT_TRUE(session.Query(kUnsafeQuery).ok());
  ASSERT_TRUE(session.Query(kUnsafeQuery).ok());
  EXPECT_EQ(session.cache_size(), 0u);
  EXPECT_EQ(session.result_cache_hits(), 0u);
}

TEST(SessionTest, SharedWmcCacheSpeedsUpRepeatsBitIdentically) {
  ProbDatabase pdb(HardDatabase(4));
  QueryOptions options;
  // Reference answer from a cache-less session.
  Session cold(&pdb, {.num_threads = 1,
                      .cache_results = false,
                      .share_wmc_cache = false});
  auto reference = cold.Query(kUnsafeQuery, options);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->exact);

  // Result cache off so the repeat really re-runs DPLL — against a warm
  // shared WMC cache.
  Session warm(&pdb, {.num_threads = 1, .cache_results = false});
  ASSERT_NE(warm.wmc_cache(), nullptr);
  auto first = warm.Query(kUnsafeQuery, options);
  auto second = warm.Query(kUnsafeQuery, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Bit-identical to the cache-less run, cold or warm.
  EXPECT_EQ(first->probability, reference->probability);
  EXPECT_EQ(second->probability, reference->probability);
  // The repeat hit the shared cache (the top-level formula alone ensures
  // at least one hit) and the session-level stats saw it.
  EXPECT_GT(second->report.wmc_shared_hits, 0u);
  WmcCacheStats stats = warm.wmc_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_EQ(warm.CumulativeReport().wmc_shared_hits, stats.hits);
}

TEST(SessionTest, MutationInvalidatesSharedWmcCache) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1, .cache_results = false});
  ASSERT_TRUE(session.Query(kUnsafeQuery).ok());
  ASSERT_GT(session.wmc_cache_stats().entries, 0u);

  // Explicit invalidation drops every shared-cache entry.
  session.InvalidateCache();
  EXPECT_EQ(session.wmc_cache_stats().entries, 0u);

  ASSERT_TRUE(session.Query(kUnsafeQuery).ok());
  size_t warm_entries = session.wmc_cache_stats().entries;
  ASSERT_GT(warm_entries, 0u);

  // A database mutation invalidates lazily: the first query after it must
  // start from an empty cache (same query, same lineage — without the drop
  // the entry count could only grow) and still answer exactly what a fresh
  // cache-less session answers on the mutated database.
  Relation extra("V", Schema::Anonymous(1));
  ASSERT_TRUE(extra.AddTuple({Value(static_cast<int64_t>(1))}, 0.5).ok());
  ASSERT_TRUE(pdb.AddRelation(std::move(extra)).ok());

  auto after = session.Query(kUnsafeQuery);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(session.wmc_cache_stats().entries, warm_entries);
  Session fresh(&pdb, {.num_threads = 1,
                       .cache_results = false,
                       .share_wmc_cache = false});
  auto reference = fresh.Query(kUnsafeQuery);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(after->probability, reference->probability);
}

// ---------------------------------------------------------------------------
// Shared WMC cache stress: 8 clients hammering one sharded cache (TSan'd)
// ---------------------------------------------------------------------------

TEST(SessionStressTest, SharedWmcCacheStress) {
  ProbDatabase pdb(HardDatabase(4));
  QueryOptions exact;
  exact.exec.num_threads = 4;

  // Single-threaded expectations from a cache-less session: shared-cache
  // hits must be bit-identical, so every concurrent answer has to match.
  Session cold(&pdb, {.num_threads = 1,
                      .cache_results = false,
                      .share_wmc_cache = false});
  auto expect_safe = cold.Query(kSafeQuery, exact);
  auto expect_hard = cold.Query(kUnsafeQuery, exact);
  ASSERT_TRUE(expect_safe.ok());
  ASSERT_TRUE(expect_hard.ok());

  // Result cache off: every query re-runs inference, and all of them race
  // on the sharded WMC cache. A tiny byte budget keeps the CLOCK eviction
  // path exercised under contention as well.
  Session session(&pdb, {.num_threads = 4,
                         .cache_results = false,
                         .share_wmc_cache = true,
                         .wmc_cache_bytes = size_t{16} << 10,
                         .wmc_cache_shards = 4});
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        bool hard = (c + q) % 2 == 0;
        const QueryAnswer& expected = hard ? *expect_hard : *expect_safe;
        auto answer =
            session.Query(hard ? kUnsafeQuery : kSafeQuery, exact);
        if (!answer.ok()) {
          errors[c] = answer.status().ToString();
        } else if (answer->probability != expected.probability) {
          errors[c] = "shared-cache answer diverged from cache-less run";
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(errors[c], "") << "client " << c;

  // 24 of the 48 queries re-solved the same hard lineage; after the first,
  // each one starts from a shared-cache hit on the full formula.
  WmcCacheStats stats = session.wmc_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_LE(stats.bytes, size_t{16} << 10);
  ExecReport total = session.CumulativeReport();
  EXPECT_EQ(total.wmc_shared_hits, stats.hits);
  EXPECT_EQ(total.wmc_shared_misses, stats.misses);
}

}  // namespace
}  // namespace pdb
