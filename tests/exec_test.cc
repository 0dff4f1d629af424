/// Tests for the execution runtime (src/exec/): thread pool lifecycle,
/// parallel loops, cooperative cancellation/deadlines, and the bit-identical
/// thread-count invariance of the sharded Monte Carlo estimators.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "boolean/lineage.h"
#include "core/pdb.h"
#include "exec/context.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "logic/parser.h"
#include "util/check.h"
#include "util/random.h"
#include "wmc/dpll.h"
#include "wmc/montecarlo.h"

namespace pdb {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains + joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  // Submit far more tasks than workers and destroy immediately: shutdown
  // must run every pending task (none dropped) and must not hang.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 5000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 5000);
}

TEST(ThreadPoolTest, ZeroMeansHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_EQ(ThreadPool::HardwareThreads(), ThreadPool::HardwareThreads());
}

TEST(ThreadPoolTest, CountsExecutedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ExecContext ctx(&pool);
  ParallelFor(&ctx, 64, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
  // The caller participates, so the pool ran at most 63 of the 64 bodies.
  EXPECT_LE(pool.tasks_executed(), 64u);
}

// ---------------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  ExecContext ctx(&pool);
  std::vector<std::atomic<int>> seen(1000);
  ParallelFor(&ctx, seen.size(), [&](size_t i) { seen[i].fetch_add(1); });
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(ctx.Report().tasks_run, 1000u);
}

TEST(ParallelForTest, WorksWithoutContextOrPool) {
  int sum = 0;
  ParallelFor(nullptr, 10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
  ExecContext ctx;  // no pool: sequential
  ParallelFor(&ctx, 10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 90);
}

TEST(ParallelForTest, NestedDoesNotDeadlock) {
  // Inner ParallelFor from inside pool tasks: caller participation
  // guarantees progress even with every worker busy.
  ThreadPool pool(2);
  ExecContext ctx(&pool);
  std::atomic<int> counter{0};
  ParallelFor(&ctx, 8, [&](size_t) {
    ParallelFor(&ctx, 8, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 64);
}

// ---------------------------------------------------------------------------
// ExecContext: cancellation and deadlines
// ---------------------------------------------------------------------------

TEST(ExecContextTest, CancelStopsWork) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.Report().cancelled);
}

TEST(ExecContextTest, DeadlineLatchesAndClears) {
  ExecContext ctx;
  ctx.SetDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(ctx.DeadlineExceeded());
  EXPECT_TRUE(ctx.ShouldStop());
  ctx.ClearDeadline();
  EXPECT_FALSE(ctx.ShouldStop());
  // The report still remembers that a deadline fired.
  EXPECT_TRUE(ctx.Report().deadline_exceeded);
}

TEST(ExecContextTest, DeadlineStopsSamplingEarly) {
  FormulaManager mgr;
  std::vector<NodeId> clauses;
  for (VarId v = 0; v + 1 < 32; ++v) {
    clauses.push_back(mgr.Or(mgr.Var(v), mgr.Var(v + 1)));
  }
  NodeId f = mgr.And(std::move(clauses));
  std::vector<double> probs(32, 0.5);
  ExecContext ctx;
  ctx.SetDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Rng rng(7);
  // An expired deadline caps the draw far below the huge requested budget.
  Estimate est = NaiveMonteCarlo(&mgr, f, probs, 50'000'000, &rng, &ctx);
  EXPECT_LT(est.samples, 50'000'000u);
  EXPECT_EQ(ctx.Report().samples_drawn, est.samples);
  EXPECT_TRUE(ctx.Report().deadline_exceeded);
}

TEST(ExecContextTest, DpllHonoursExpiredDeadline) {
  FormulaManager mgr;
  std::vector<NodeId> clauses;
  for (VarId v = 0; v + 1 < 24; ++v) {
    clauses.push_back(mgr.Or(mgr.Var(v), mgr.Var(v + 1)));
  }
  NodeId f = mgr.And(std::move(clauses));
  std::vector<double> probs(24, 0.5);
  ExecContext ctx;
  ctx.SetDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  DpllOptions options;
  options.exec = &ctx;
  DpllCounter counter(&mgr, WeightsFromProbabilities(probs), options);
  auto result = counter.Compute(f);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Seed determinism: estimates are invariant to thread count
// ---------------------------------------------------------------------------

/// Layered Or/And formula over `n` variables with pseudorandom probs.
NodeId DeterminismFormula(FormulaManager* mgr, size_t n,
                          std::vector<double>* probs) {
  Rng gen(2026);
  std::vector<NodeId> clauses;
  for (VarId v = 0; v < n; ++v) {
    probs->push_back(0.05 + 0.9 * gen.NextDouble());
    clauses.push_back(
        mgr->Or(mgr->Var(v), mgr->And(mgr->Var((v + 3) % n),
                                      mgr->Var((v + 7) % n))));
  }
  return mgr->And(std::move(clauses));
}

TEST(DeterminismTest, NaiveMonteCarloIdenticalAcrossThreadCounts) {
  FormulaManager mgr;
  std::vector<double> probs;
  NodeId f = DeterminismFormula(&mgr, 24, &probs);

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    Rng rng(20200614);
    return NaiveMonteCarlo(&mgr, f, probs, 100000, &rng, &ctx);
  };
  Estimate one = run(1);
  Estimate two = run(2);
  Estimate eight = run(8);
  // Bit-identical, not approximately equal.
  EXPECT_EQ(one.value, two.value);
  EXPECT_EQ(one.value, eight.value);
  EXPECT_EQ(one.std_error, two.std_error);
  EXPECT_EQ(one.std_error, eight.std_error);
  EXPECT_EQ(one.samples, two.samples);
  EXPECT_EQ(one.samples, eight.samples);

  // The sequential no-context path agrees too: same shard plan, inline.
  Rng rng(20200614);
  Estimate inline_est = NaiveMonteCarlo(&mgr, f, probs, 100000, &rng);
  EXPECT_EQ(one.value, inline_est.value);
  EXPECT_EQ(one.std_error, inline_est.std_error);
}

TEST(DeterminismTest, KarpLubyIdenticalAcrossThreadCounts) {
  // Chain DNF over 40 variables.
  std::vector<std::vector<VarId>> terms;
  std::vector<double> probs;
  Rng gen(11);
  for (VarId v = 0; v < 40; ++v) probs.push_back(0.1 + 0.8 * gen.NextDouble());
  for (VarId v = 0; v + 2 < 40; ++v) terms.push_back({v, v + 1, v + 2});

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    Rng rng(42);
    return KarpLubyDnf(terms, probs, 100000, &rng, &ctx);
  };
  auto one = run(1);
  auto two = run(2);
  auto eight = run(8);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one->value, two->value);
  EXPECT_EQ(one->value, eight->value);
  EXPECT_EQ(one->std_error, two->std_error);
  EXPECT_EQ(one->std_error, eight->std_error);
}

TEST(DeterminismTest, RngSplitIsStableAndIndependent) {
  Rng parent(123);
  Rng a = parent.Split(0);
  Rng a_again = parent.Split(0);
  Rng b = parent.Split(1);
  uint64_t a1 = a.Next();
  EXPECT_EQ(a1, a_again.Next());  // same index -> same stream
  EXPECT_NE(a1, b.Next());        // different index -> different stream
  // Split does not advance the parent.
  Rng fresh(123);
  EXPECT_EQ(parent.Next(), fresh.Next());
}

// ---------------------------------------------------------------------------
// Engine integration: deadline-driven degradation, parallel fan-out
// ---------------------------------------------------------------------------

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

TEST(DeadlineFallbackTest, DpllDeadlineFallsBackToMonteCarlo) {
  ProbDatabase pdb(HardDatabase(18));
  QueryOptions options;
  options.exec.deadline_ms = 1;  // far too tight for exact WMC at n=18
  options.monte_carlo_samples = 20000;
  auto answer = pdb.Query("R(x), S(x,y), T(y)", options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method, InferenceMethod::kMonteCarlo);
  EXPECT_FALSE(answer->exact);
  EXPECT_NE(answer->explanation.find("deadline"), std::string::npos)
      << answer->explanation;
  EXPECT_TRUE(answer->report.deadline_exceeded);
  EXPECT_GT(answer->report.samples_drawn, 0u);
  // The reported estimate lies inside its clamped enclosure.
  EXPECT_GT(answer->probability, 0.0);
  EXPECT_GE(answer->lower, 0.0);
  EXPECT_LE(answer->upper, 1.0);
}

// A sampled answer reports an interval that contains its own estimate.
// R(x), S(x,y) is hierarchical, so its plan upper bound is the exact
// answer and the ±2σ band of a 2,000-sample estimate regularly pokes past
// it; the band may also miss the plan bounds altogether.
TEST(DeadlineFallbackTest, SampledIntervalContainsEstimate) {
  for (uint64_t d = 0; d < 10; ++d) {
    Database db;
    Relation r("R", Schema::Anonymous(1));
    Relation s("S", Schema::Anonymous(2));
    Rng rng(d + 1);
    for (int64_t x = 0; x < 6; ++x) {
      PDB_CHECK(r.AddTuple({Value(x)}, rng.NextDouble()).ok());
      for (int64_t y = 0; y < 4; ++y) {
        PDB_CHECK(s.AddTuple({Value(x), Value(y)}, rng.NextDouble()).ok());
      }
    }
    PDB_CHECK(db.AddRelation(std::move(r)).ok());
    PDB_CHECK(db.AddRelation(std::move(s)).ok());
    ProbDatabase pdb(std::move(db));
    for (uint64_t seed = 0; seed < 20; ++seed) {
      QueryOptions options;
      options.prefer_lifted = false;
      options.max_dpll_decisions = 1;  // force the Monte Carlo fallback
      options.monte_carlo_samples = 2000;
      options.monte_carlo_seed = seed;
      auto answer = pdb.Query("R(x), S(x,y)", options);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer->method, InferenceMethod::kMonteCarlo);
      SCOPED_TRACE(answer->explanation);
      EXPECT_LE(0.0, answer->lower) << "db " << d << " seed " << seed;
      EXPECT_LE(answer->lower, answer->probability)
          << "db " << d << " seed " << seed;
      EXPECT_LE(answer->probability, answer->upper)
          << "db " << d << " seed " << seed;
      EXPECT_LE(answer->upper, 1.0) << "db " << d << " seed " << seed;
    }
  }
}

// Budgets whose expiry overflows the clock's nanosecond count arm no
// deadline at all, rather than one that has already passed.
TEST(DeadlineFallbackTest, GenerousDeadlineStaysExact) {
  ProbDatabase pdb(HardDatabase(3));
  for (uint64_t deadline_ms :
       {uint64_t{60'000}, uint64_t{10'000'000'000'000}, UINT64_MAX}) {
    QueryOptions options;
    options.exec.deadline_ms = deadline_ms;
    auto answer = pdb.Query("R(x), S(x,y), T(y)", options);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->method, InferenceMethod::kGroundedExact) << deadline_ms;
    EXPECT_TRUE(answer->exact) << deadline_ms;
    EXPECT_FALSE(answer->report.deadline_exceeded) << deadline_ms;
  }
}

TEST(ParallelAnswersTest, FanOutMatchesSequential) {
  ProbDatabase pdb(HardDatabase(6));
  ConjunctiveQuery cq({Atom("R", {Term::Var("x")}),
                       Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("T", {Term::Var("y")})});
  QueryOptions sequential;
  sequential.exec.num_threads = 1;
  QueryOptions parallel = sequential;
  parallel.exec.num_threads = 4;
  auto seq = pdb.QueryWithAnswers(cq, {"x"}, sequential);
  auto par = pdb.QueryWithAnswers(cq, {"x"}, parallel);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  ASSERT_EQ(seq->size(), par->size());
  ASSERT_EQ(seq->size(), 6u);
  for (size_t i = 0; i < seq->size(); ++i) {
    EXPECT_EQ(seq->tuple(i), par->tuple(i));
    // Same seed + same shard plan -> identical marginals even when the
    // per-tuple marginal needed the Monte Carlo path.
    EXPECT_EQ(seq->prob(i), par->prob(i));
  }
}

TEST(ParallelAnswersTest, BooleanQueryIdenticalAcrossThreadCounts) {
  ProbDatabase pdb(HardDatabase(10));
  QueryOptions options;
  options.max_dpll_decisions = 100;  // force the Monte Carlo path
  options.monte_carlo_samples = 50000;
  QueryOptions wide = options;
  wide.exec.num_threads = 8;
  auto narrow_answer = pdb.Query("R(x), S(x,y), T(y)", options);
  auto wide_answer = pdb.Query("R(x), S(x,y), T(y)", wide);
  ASSERT_TRUE(narrow_answer.ok());
  ASSERT_TRUE(wide_answer.ok());
  EXPECT_EQ(narrow_answer->method, InferenceMethod::kMonteCarlo);
  EXPECT_EQ(narrow_answer->probability, wide_answer->probability);
  EXPECT_EQ(narrow_answer->lower, wide_answer->lower);
  EXPECT_EQ(narrow_answer->upper, wide_answer->upper);
  EXPECT_EQ(wide_answer->report.num_threads, 8);
}

}  // namespace
}  // namespace pdb
