// M1-M4 — substrate microbenchmarks: lineage construction throughput,
// formula-manager operations, OBDD apply, DPLL cache behaviour, big-number
// arithmetic, and parallel Monte Carlo sampling throughput across thread
// counts. These watch the plumbing the experiment benches stand on.
//
// Besides the console table, every run is exported to BENCH_micro.json
// (name, wall_ms, samples_per_sec, threads) in the working directory so the
// perf trajectory is trackable across PRs.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "boolean/lineage.h"
#include "core/session.h"
#include "exec/context.h"
#include "exec/thread_pool.h"
#include "kc/obdd.h"
#include "kc/order.h"
#include "logic/parser.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "storage/durable_db.h"
#include "storage/env.h"
#include "storage/index_cache.h"
#include "storage/write_batch.h"
#include "util/big_int.h"
#include "util/rational.h"
#include "wmc/dpll.h"
#include "wmc/montecarlo.h"
#include "wmc/wmc_cache.h"
#include "workloads.h"

namespace pdb {
namespace {

void BM_LineageConstruction(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Database db = bench::TwoLevelDatabase(n, 4, &rng);
  auto q = ParseUcqShorthand("R(x), S(x,y)");
  auto ucq = FoToUcq(*q);
  for (auto _ : state) {
    FormulaManager mgr;
    auto lineage = BuildUcqLineage(*ucq, db, &mgr);
    benchmark::DoNotOptimize(lineage);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.TupleCount()));
}
BENCHMARK(BM_LineageConstruction)->Arg(32)->Arg(128)->Arg(512);

// Binary path relations for the compiled-join benches: Sk(i, (i+1) mod n).
// `head_rows` bounds S1 separately so the cost-based order can be forced to
// start from a small head relation.
Database ChainJoinDatabase(size_t head_rows, size_t n) {
  Database db;
  auto add = [&](const char* name, size_t rows) {
    Relation rel(name, Schema::Anonymous(2));
    for (size_t i = 0; i < rows; ++i) {
      PDB_CHECK(rel.AddTuple({Value(static_cast<int64_t>(i)),
                              Value(static_cast<int64_t>((i + 1) % n))},
                             0.5)
                    .ok());
    }
    PDB_CHECK(db.AddRelation(std::move(rel)).ok());
  };
  add("S1", head_rows);
  add("S2", n);
  add("S3", n);
  return db;
}

// M7: compiled join programs vs. the syntactic atom order on an adversarial
// chain query. The query is written S1, S3, S2 — syntactically S3 shares no
// variable with S1, so the naive order enumerates the n x n cross product
// before S2 prunes it. The cost-based order rewrites it to the chain
// S1 -> S2 -> S3 where every step after the first is an indexed lookup.
void BM_CqJoinChain(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool cost_based = state.range(1) != 0;
  Database db = ChainJoinDatabase(n, n);
  ConjunctiveQuery cq(
      {Atom("S1", {Term::Var("x0"), Term::Var("x1")}),
       Atom("S3", {Term::Var("x2"), Term::Var("x3")}),
       Atom("S2", {Term::Var("x1"), Term::Var("x2")})});
  GroundingOptions grounding;
  grounding.order =
      cost_based ? AtomOrderPolicy::kCostBased : AtomOrderPolicy::kSyntactic;
  for (auto _ : state) {
    size_t matches = 0;
    Status st = EnumerateCqMatches(
        cq, db, [&](const CqMatch&) { ++matches; }, grounding);
    PDB_CHECK(st.ok() && matches == n);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CqJoinChain)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

// M7: the star-shaped adversary. Written A(x), B(y), D(z), C(x,y,z), the
// syntactic order enumerates the n^3 cross product of the three unary
// atoms before the spoke relation filters it; the cost-based order picks
// one unary, then C (one bound position beats zero), then the remaining
// unaries as fully-bound lookups — O(n) total.
void BM_CqJoinStar(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool cost_based = state.range(1) != 0;
  Database db;
  for (const char* name : {"A", "B", "D"}) {
    Relation rel(name, Schema::Anonymous(1));
    for (size_t i = 0; i < n; ++i) {
      PDB_CHECK(rel.AddTuple({Value(static_cast<int64_t>(i))}, 0.5).ok());
    }
    PDB_CHECK(db.AddRelation(std::move(rel)).ok());
  }
  Relation c("C", Schema::Anonymous(3));
  for (size_t i = 0; i < n; ++i) {
    Value v(static_cast<int64_t>(i));
    PDB_CHECK(c.AddTuple({v, v, v}, 0.5).ok());
  }
  PDB_CHECK(db.AddRelation(std::move(c)).ok());
  ConjunctiveQuery cq(
      {Atom("A", {Term::Var("x")}), Atom("B", {Term::Var("y")}),
       Atom("D", {Term::Var("z")}),
       Atom("C", {Term::Var("x"), Term::Var("y"), Term::Var("z")})});
  GroundingOptions grounding;
  grounding.order =
      cost_based ? AtomOrderPolicy::kCostBased : AtomOrderPolicy::kSyntactic;
  for (auto _ : state) {
    size_t matches = 0;
    Status st = EnumerateCqMatches(
        cq, db, [&](const CqMatch&) { ++matches; }, grounding);
    PDB_CHECK(st.ok() && matches == n);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CqJoinStar)->Args({32, 0})->Args({32, 1})->Args({64, 0})->Args(
    {64, 1});

// M7: cold vs. session-cached hash indexes. A tiny head relation joined
// through two large ones: the probe work is a handful of lookups, so the
// per-query cost is dominated by building the two 8192-row indexes — which
// the cached variant pays exactly once across all iterations.
void BM_CqJoinIndexCache(benchmark::State& state) {
  bool cached = state.range(0) != 0;
  constexpr size_t kRows = 8192;
  Database db = ChainJoinDatabase(8, kRows);
  ConjunctiveQuery cq(
      {Atom("S1", {Term::Var("x0"), Term::Var("x1")}),
       Atom("S2", {Term::Var("x1"), Term::Var("x2")}),
       Atom("S3", {Term::Var("x2"), Term::Var("x3")})});
  IndexCache cache;
  ExecContext ctx;
  if (cached) ctx.set_index_cache(&cache);
  GroundingOptions grounding;
  grounding.exec = &ctx;
  for (auto _ : state) {
    size_t matches = 0;
    Status st = EnumerateCqMatches(
        cq, db, [&](const CqMatch&) { ++matches; }, grounding);
    PDB_CHECK(st.ok() && matches == 8);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_CqJoinIndexCache)->Arg(0)->Arg(1);

// M9: the columnar executor on a dense-key chain join, steady state
// (indexes session-cached, cost-based order, so the row measures probe
// work, not builds): CSR offset arrays probed with integer codes.
void BM_CqJoinColumnarChain(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database db = ChainJoinDatabase(n, n);
  ConjunctiveQuery cq(
      {Atom("S1", {Term::Var("x0"), Term::Var("x1")}),
       Atom("S2", {Term::Var("x1"), Term::Var("x2")}),
       Atom("S3", {Term::Var("x2"), Term::Var("x3")})});
  IndexCache cache;
  ExecContext ctx;
  ctx.set_index_cache(&cache);
  GroundingOptions grounding;
  grounding.exec = &ctx;
  for (auto _ : state) {
    size_t matches = 0;
    Status st = EnumerateCqMatches(
        cq, db, [&](const CqMatch&) { ++matches; }, grounding);
    PDB_CHECK(st.ok() && matches == n);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CqJoinColumnarChain)->Arg(1024)->Arg(8192);

// M9: the columnar executor on the star join (unary spokes, one wide hub
// probed on a single bound position, then fully-bound spoke lookups).
void BM_CqJoinColumnarStar(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database db;
  for (const char* name : {"A", "B", "D"}) {
    Relation rel(name, Schema::Anonymous(1));
    for (size_t i = 0; i < n; ++i) {
      PDB_CHECK(rel.AddTuple({Value(static_cast<int64_t>(i))}, 0.5).ok());
    }
    PDB_CHECK(db.AddRelation(std::move(rel)).ok());
  }
  Relation c("C", Schema::Anonymous(3));
  for (size_t i = 0; i < n; ++i) {
    Value v(static_cast<int64_t>(i));
    PDB_CHECK(c.AddTuple({v, v, v}, 0.5).ok());
  }
  PDB_CHECK(db.AddRelation(std::move(c)).ok());
  ConjunctiveQuery cq(
      {Atom("A", {Term::Var("x")}), Atom("B", {Term::Var("y")}),
       Atom("D", {Term::Var("z")}),
       Atom("C", {Term::Var("x"), Term::Var("y"), Term::Var("z")})});
  IndexCache cache;
  ExecContext ctx;
  ctx.set_index_cache(&cache);
  GroundingOptions grounding;
  grounding.exec = &ctx;
  for (auto _ : state) {
    size_t matches = 0;
    Status st = EnumerateCqMatches(
        cq, db, [&](const CqMatch&) { ++matches; }, grounding);
    PDB_CHECK(st.ok() && matches == n);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CqJoinColumnarStar)->Arg(1024)->Arg(8192);

void BM_FoLineageConstruction(benchmark::State& state) {
  // Universal query: grounds over domain^2 pairs.
  size_t n = static_cast<size_t>(state.range(0));
  Database db = bench::TwoLevelDatabase(n, 2);
  auto q = ParseFo("forall x forall y (S(x,y) => R(x))");
  for (auto _ : state) {
    FormulaManager mgr;
    auto lineage = BuildLineage(*q, db, &mgr);
    benchmark::DoNotOptimize(lineage);
  }
}
BENCHMARK(BM_FoLineageConstruction)->Arg(8)->Arg(16)->Arg(32);

void BM_FormulaHashConsing(benchmark::State& state) {
  for (auto _ : state) {
    FormulaManager mgr;
    NodeId acc = mgr.False();
    for (VarId v = 0; v < 256; ++v) {
      acc = mgr.Or(acc, mgr.And(mgr.Var(v), mgr.Var((v + 1) % 256)));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FormulaHashConsing);

void BM_ObddApply(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database db = bench::TwoLevelDatabase(n, 2);
  auto q = ParseUcqShorthand("R(x), S(x,y)");
  FormulaManager mgr;
  auto lineage = BuildLineage(*q, db, &mgr);
  PDB_CHECK(lineage.ok());
  std::vector<VarId> order = HierarchicalOrder(*lineage, db);
  for (auto _ : state) {
    Obdd obdd(order);
    auto root = obdd.Compile(&mgr, lineage->root);
    benchmark::DoNotOptimize(root);
  }
}
BENCHMARK(BM_ObddApply)->Arg(16)->Arg(64)->Arg(256);

void BM_DpllCacheBehaviour(benchmark::State& state) {
  // Heavily shared subformulas: measures the cache hit path.
  FormulaManager mgr;
  std::vector<NodeId> layer;
  for (VarId v = 0; v < 16; ++v) layer.push_back(mgr.Var(v));
  for (int rounds = 0; rounds < 3; ++rounds) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < layer.size(); ++i) {
      next.push_back(mgr.Or(layer[i], layer[i + 1]));
    }
    layer = std::move(next);
  }
  NodeId f = mgr.And(layer);
  std::vector<double> probs(16, 0.5);
  for (auto _ : state) {
    DpllCounter counter(&mgr, WeightsFromProbabilities(probs));
    auto p = counter.Compute(f);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_DpllCacheBehaviour);

// M4: sampling throughput vs. thread count. The estimate is bit-identical
// across thread counts (fixed seed, fixed shard plan), so this isolates the
// runtime's scaling: samples/sec at t threads vs. 1 thread.
void BM_MonteCarloSampling(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  Rng gen(7);
  Database db = bench::H0Database(12, &gen);
  auto q = ParseUcqShorthand("R(x), S(x,y), T(y)");
  FormulaManager mgr;
  auto lineage = BuildLineage(*q, db, &mgr);
  PDB_CHECK(lineage.ok());
  mgr.VarsOf(lineage->root);  // warm the cache outside the timed region
  constexpr uint64_t kSamples = 1 << 16;
  ThreadPool pool(static_cast<size_t>(threads));
  ExecContext ctx(&pool);
  for (auto _ : state) {
    Rng rng(20200614);
    Estimate est = NaiveMonteCarlo(&mgr, lineage->root, lineage->probs,
                                   kSamples, &rng, &ctx);
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSamples));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_MonteCarloSampling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_KarpLubySampling(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  Rng gen(7);
  Database db = bench::H0Database(12, &gen);
  auto q = ParseUcqShorthand("R(x), S(x,y), T(y)");
  auto ucq = FoToUcq(*q);
  auto dnf = BuildUcqDnf(*ucq, db);
  PDB_CHECK(dnf.ok());
  constexpr uint64_t kSamples = 1 << 16;
  ThreadPool pool(static_cast<size_t>(threads));
  ExecContext ctx(&pool);
  for (auto _ : state) {
    Rng rng(20200614);
    auto est = KarpLubyDnf(dnf->terms, dnf->probs, kSamples, &rng, &ctx);
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSamples));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_KarpLubySampling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Cross-query WMC memoization, repeated-query scenario: the same #P-hard
// H0 lineage counted by a fresh DpllCounter every iteration — the shape of
// a session serving the same (uncachable-at-the-result-level) query again
// and again. Arg 0 recomputes from scratch; Arg 1 probes a session-lifetime
// shared cache, so every iteration after the first is answered by the
// top-level signature hit. The exported hit_rate counter is the fraction of
// shared-cache probes that hit.
void BM_WmcSharedCache(benchmark::State& state) {
  bool shared = state.range(0) != 0;
  Rng gen(13);
  Database db = bench::H0Database(5, &gen);
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  FormulaManager mgr;
  auto lineage = BuildUcqLineage(*ucq, db, &mgr);
  PDB_CHECK(lineage.ok());
  WeightMap weights = WeightsFromProbabilities(lineage->probs);
  WmcCache cache;
  for (auto _ : state) {
    DpllOptions options;
    if (shared) options.shared_cache = &cache;
    DpllCounter counter(&mgr, weights, options);
    auto p = counter.Compute(lineage->root);
    benchmark::DoNotOptimize(p);
  }
  WmcCacheStats stats = cache.stats();
  uint64_t probes = stats.hits + stats.misses;
  state.counters["hit_rate"] =
      probes == 0 ? 0.0 : static_cast<double>(stats.hits) / probes;
}
BENCHMARK(BM_WmcSharedCache)->Arg(0)->Arg(1);

// Observability overhead on the hot DPLL loop, the same multi-block 3-DNF
// workload as BM_DpllComponents. Arg 0: bare solver, no ExecContext (the
// counters have nowhere to go). Arg 1: ExecContext attached — the always-on
// relaxed-atomic counters every query pays; the obs acceptance bar is
// Arg1/Arg0 within 2%. Arg 2: ExecContext plus a QueryTrace — the opt-in
// cost of `QueryOptions::trace` (clock reads in the shared-cache probes and
// span recording), allowed to be visibly higher. Arg 3: the full server
// observability stack per query — ExecContext, rate-limited EventLog line,
// and the slow-query-log threshold gate (fast query, so the gate rejects:
// the common path). Also held to the 2% bar versus Arg 0: the per-query
// logging cost must stay invisible next to a real solve.
void BM_ObsOverhead(benchmark::State& state) {
  int mode = static_cast<int>(state.range(0));
  FormulaManager mgr;
  Rng gen(11);
  std::vector<double> probs;
  std::vector<NodeId> blocks;
  constexpr int kBlocks = 4;
  constexpr int kVarsPerBlock = 14;
  constexpr int kTermsPerBlock = 24;
  for (int b = 0; b < kBlocks; ++b) {
    VarId base = static_cast<VarId>(probs.size());
    for (int v = 0; v < kVarsPerBlock; ++v) {
      probs.push_back(0.2 + 0.6 * gen.NextDouble());
    }
    std::vector<NodeId> terms;
    for (int t = 0; t < kTermsPerBlock; ++t) {
      std::vector<NodeId> lits;
      for (int l = 0; l < 3; ++l) {
        NodeId lit = mgr.Var(base + static_cast<VarId>(
                                        gen.Uniform(kVarsPerBlock)));
        if (gen.Bernoulli(0.5)) lit = mgr.Not(lit);
        lits.push_back(lit);
      }
      terms.push_back(mgr.And(std::move(lits)));
    }
    blocks.push_back(mgr.Or(std::move(terms)));
  }
  NodeId root = mgr.And(std::move(blocks));
  WeightMap weights = WeightsFromProbabilities(probs);
  ExecContext ctx;
  QueryTrace trace;
  if (mode == 2) ctx.set_trace(&trace);
  EventLogOptions log_options;
  log_options.ring_size = 16;
  EventLog event_log(log_options);
  SlowQueryLog::Options slow_options;
  slow_options.threshold_us = 1'000'000;  // nothing here is that slow
  slow_options.sink = &event_log;
  SlowQueryLog slow_log(slow_options);
  for (auto _ : state) {
    DpllOptions options;
    if (mode >= 1) options.exec = &ctx;
    DpllCounter counter(&mgr, weights, options);
    auto p = counter.Compute(root);
    benchmark::DoNotOptimize(p);
    if (mode == 3) {
      // The server's per-query wrapper: the extended spans (parse /
      // admission / respond are recorded outside the solver's hot loop),
      // one structured log line, and the slow-query threshold gate (a
      // fast query, so no capture).
      QueryTrace server_trace;
      uint64_t now = server_trace.NowNs();
      server_trace.RecordSpan(TracePhase::kHttpParse, now, 1'000);
      server_trace.RecordSpan(TracePhase::kAdmissionWait, now, 500);
      server_trace.RecordSpan(TracePhase::kHttpRespond, now, 2'000);
      server_trace.Finish();
      event_log.Log(LogLevel::kInfo, "query_done",
                    {LogField::Str("method", "grounded-exact"),
                     LogField::Uint("latency_us", 1)});
      SlowQueryEntry entry;
      entry.latency_us = 1;
      entry.statement = "BM_ObsOverhead";
      benchmark::DoNotOptimize(slow_log.MaybeRecord(std::move(entry)));
    }
  }
  state.counters["mode"] = mode;
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Cross-query WMC memoization, fan-out scenario: QueryWithAnswers over
// U(z), R(x), S(x,y), T(y) — every answer tuple's lineage conjoins its own
// U(z_i) with the *same* hard R-S-T core, so with the shared cache each
// per-tuple sub-query after the first starts from that core's entry. This
// is the end-to-end Session path (per-tuple fan-out, largest first).
void BM_WmcSharedCacheFanout(benchmark::State& state) {
  bool shared = state.range(0) != 0;
  Rng gen(17);
  Database db = bench::H0Database(4, &gen);
  Relation u("U", Schema::Anonymous(1));
  constexpr int kHeads = 8;
  for (int i = 1; i <= kHeads; ++i) {
    PDB_CHECK(
        u.AddTuple({Value(static_cast<int64_t>(i))}, 0.1 + 0.05 * i).ok());
  }
  PDB_CHECK(db.AddRelation(std::move(u)).ok());
  ProbDatabase pdb(std::move(db));
  ConjunctiveQuery cq({Atom("U", {Term::Var("z")}),
                       Atom("R", {Term::Var("x")}),
                       Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("T", {Term::Var("y")})});
  uint64_t hits = 0, probes = 0;
  for (auto _ : state) {
    // Fresh session per iteration: result caching off so every tuple's
    // Boolean sub-query re-runs inference; only the WMC-level sharing (or
    // its absence) differs between the two args.
    Session session(&pdb, {.num_threads = 1,
                           .cache_results = false,
                           .share_wmc_cache = shared});
    auto answers = session.QueryWithAnswers(cq, {"z"});
    benchmark::DoNotOptimize(answers);
    PDB_CHECK(answers.ok() && answers->size() == kHeads);
    WmcCacheStats stats = session.wmc_cache_stats();
    hits += stats.hits;
    probes += stats.hits + stats.misses;
  }
  state.counters["hit_rate"] =
      probes == 0 ? 0.0 : static_cast<double>(hits) / probes;
}
BENCHMARK(BM_WmcSharedCacheFanout)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// M15: cold-read's grounded statements in process. perfbench's cold-read
// sends H0 over dense 8x8 blocks, counted exactly by DPLL, and over 9x9
// blocks under a 5 ms deadline, answered exactly when DPLL finishes in
// time and by 200,000 Karp-Luby samples otherwise. These benches run the
// same block edges (bench::BlockEdges).
// ---------------------------------------------------------------------------

// Every iteration grounds H0 over a fresh 8x8 block (the same edges, new
// probabilities) and counts it through one long-lived shared WmcCache, the
// way pdbd's process-wide cache sees a stream of never-repeating unsafe
// statements: no probe can hit, so every probe is overhead. 58 iterations
// are one cold-read run's dense blocks, so the cache ends as large as it
// does in pdbd over one run. Arg 0 counts without the cache.
void BM_DpllH0BlockWarmCache(benchmark::State& state) {
  const bool shared = state.range(0) != 0;
  const auto edges = bench::BlockEdges(8, 0.5, 4);
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  Rng gen(21);
  WmcCache cache;
  for (auto _ : state) {
    Database db = bench::H0BlockDatabase(8, edges, 0.1, 0.9, &gen);
    FormulaManager mgr;
    auto lineage = BuildUcqLineage(*ucq, db, &mgr);
    PDB_CHECK(lineage.ok());
    DpllOptions options;
    if (shared) options.shared_cache = &cache;
    DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs),
                        options);
    auto p = counter.Compute(lineage->root);
    PDB_CHECK(p.ok());
    benchmark::DoNotOptimize(p);
  }
  state.counters["cache_entries"] =
      static_cast<double>(cache.stats().entries);
}
BENCHMARK(BM_DpllH0BlockWarmCache)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(58)
    ->Unit(benchmark::kMillisecond);

// The sampled class's statement counted exactly: H0 over a fresh 9x9
// block (34 edges, 52 variables, probabilities in [0.05, 0.25]) each
// iteration, through one long-lived shared WmcCache as in pdbd. cold-read
// sends these under X-Deadline-Ms 5, so this tracks how much of that
// deadline exact counting needs.
void BM_DpllH0LargeBlock(benchmark::State& state) {
  const auto edges = bench::BlockEdges(9, 0.5, 1);
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  Rng gen(24);
  WmcCache cache;
  for (auto _ : state) {
    Database db = bench::H0BlockDatabase(9, edges, 0.05, 0.25, &gen);
    FormulaManager mgr;
    auto lineage = BuildUcqLineage(*ucq, db, &mgr);
    PDB_CHECK(lineage.ok() && lineage->probs.size() == 52);
    DpllOptions options;
    options.shared_cache = &cache;
    DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs),
                        options);
    auto p = counter.Compute(lineage->root);
    PDB_CHECK(p.ok());
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_DpllH0LargeBlock)->Iterations(58)->Unit(benchmark::kMillisecond);

// One sampled statement's estimate: KarpLubyDnf at pdbd's default 200,000
// samples over the DNF of H0 on a 9x9 block (34 terms over 52 variables),
// on the calling thread.
void BM_KarpLubyH0Block(benchmark::State& state) {
  Rng gen(22);
  Database db =
      bench::H0BlockDatabase(9, bench::BlockEdges(9, 0.5, 1), 0.05, 0.25, &gen);
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  auto dnf = BuildUcqDnf(*ucq, db);
  PDB_CHECK(dnf.ok() && dnf->terms.size() == 34 && dnf->probs.size() == 52);
  constexpr uint64_t kSamples = 200000;
  for (auto _ : state) {
    Rng rng(20200614);
    auto est = KarpLubyDnf(dnf->terms, dnf->probs, kSamples, &rng);
    PDB_CHECK(est.ok());
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSamples));
}
BENCHMARK(BM_KarpLubyH0Block)->Unit(benchmark::kMillisecond);

// The sampler on a wide DNF: H0 over a complete 64x64 bipartite graph,
// 4,096 terms over 4,224 variables (66 bitset words), 5,000 samples on the
// calling thread. A sample draws every variable and tests every term, so
// its cost must grow with the DNF's total term length, not with terms
// times words.
void BM_KarpLubyWideDnf(benchmark::State& state) {
  Rng gen(23);
  Database db = bench::H0Database(64, &gen);
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  auto dnf = BuildUcqDnf(*ucq, db);
  PDB_CHECK(dnf.ok() && dnf->terms.size() == 4096);
  constexpr uint64_t kSamples = 5000;
  for (auto _ : state) {
    Rng rng(20200614);
    auto est = KarpLubyDnf(dnf->terms, dnf->probs, kSamples, &rng);
    PDB_CHECK(est.ok());
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSamples));
}
BENCHMARK(BM_KarpLubyWideDnf)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// M13: safe queries at the cost of their group, not of the database. Group
// 0 of an R(g,x), S(g,x,y), T(g,y) database holds 40 tuples (R 8, S 24, T
// 8); more groups of the same shape grow the database to `tuples`. The safe
// CQ and Q_J on group 0 run through one warm Session with the result cache
// off, so every iteration runs the lifted rules, whose reads are index
// probes on the group constant: the per-query time should stay flat as the
// database grows 100x.
// ---------------------------------------------------------------------------

/// The grouped database with `tuples` tuples. Only the most recent one is
/// kept: each benchmark registers its arguments in size order, so each
/// size is built once per benchmark.
const ProbDatabase& GroupedDatabase(size_t tuples) {
  static size_t built_tuples = 0;
  static std::unique_ptr<ProbDatabase> built;
  if (built != nullptr && built_tuples == tuples) return *built;
  constexpr int64_t kN = 8;  // 8 + 24 + 8 = 40 tuples per group
  Relation r("R", Schema::Anonymous(2));
  Relation s("S", Schema::Anonymous(3));
  Relation t("T", Schema::Anonymous(2));
  Rng rng(13);
  auto prob = [&] { return 0.1 + 0.8 * rng.NextDouble(); };
  for (int64_t g = 0; g < static_cast<int64_t>(tuples / 40); ++g) {
    for (int64_t x = 0; x < kN; ++x) {
      PDB_CHECK(r.AddTuple({Value(g), Value(x)}, prob()).ok());
      PDB_CHECK(t.AddTuple({Value(g), Value(x)}, prob()).ok());
      for (int64_t k = 0; k < 3; ++k) {
        PDB_CHECK(
            s.AddTuple({Value(g), Value(x), Value((x + k) % kN)}, prob())
                .ok());
      }
    }
  }
  Database db;
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  built.reset();  // free the previous size before holding the next
  built = std::make_unique<ProbDatabase>(std::move(db));
  built_tuples = tuples;
  return *built;
}

void BM_SafeQueryGroupScaling(benchmark::State& state) {
  const ProbDatabase& pdb =
      GroupedDatabase(static_cast<size_t>(state.range(0)));
  const std::string query = state.range(1) == 0
                                ? "R(0,x), S(0,x,y)"
                                : "R(0,x), S(0,x,y), T(0,u), S(0,u,v)";
  Session session(&pdb, {.num_threads = 1, .cache_results = false});
  // Warm-up: builds the columnar images and the session's indexes.
  PDB_CHECK(session.Query(query).ok());
  for (auto _ : state) {
    auto answer = session.Query(query);
    PDB_CHECK(answer.ok() && answer->method == InferenceMethod::kLifted);
    benchmark::DoNotOptimize(answer->probability);
  }
}
BENCHMARK(BM_SafeQueryGroupScaling)
    ->ArgNames({"tuples", "qj"})
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({40000, 0})
    ->Args({40000, 1})
    ->Args({400000, 0})
    ->Args({400000, 1})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// M14: the same safe queries one shot at a time. `ProbDatabase::Query` runs
// each call in a fresh single-shot session whose index cache starts empty,
// so every call builds the indexes its probes read, on top of the lifted
// rules. One index per probed column keeps that build cheap.
// ---------------------------------------------------------------------------

void BM_SafeQueryOneShot(benchmark::State& state) {
  const ProbDatabase& pdb =
      GroupedDatabase(static_cast<size_t>(state.range(0)));
  const std::string query = state.range(1) == 0
                                ? "R(0,x), S(0,x,y)"
                                : "R(0,x), S(0,x,y), T(0,u), S(0,u,v)";
  // Warm-up: builds the relations' columnar images, which outlive a call.
  PDB_CHECK(pdb.Query(query).ok());
  for (auto _ : state) {
    auto answer = pdb.Query(query);
    PDB_CHECK(answer.ok() && answer->method == InferenceMethod::kLifted);
    benchmark::DoNotOptimize(answer->probability);
  }
}
BENCHMARK(BM_SafeQueryOneShot)
    ->ArgNames({"tuples", "qj"})
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({40000, 0})
    ->Args({40000, 1})
    ->Args({400000, 0})
    ->Args({400000, 1})
    ->Unit(benchmark::kMillisecond);

/// Sentences with a negated atom through the same warm Session path. R(x)
/// holds `n` values and S(x,y) three tuples per value, so the unate
/// rewrite materializes a complement of n² tuples for !S (arm 0) or n
/// tuples for !R (arm 1), per query. Arm 0 probes the complement S__c once
/// per value of x; arm 1 probes the stored S once per value of x.
void BM_NegatedSentenceLifted(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  Rng rng(17);
  for (int64_t x = 0; x < n; ++x) {
    PDB_CHECK(r.AddTuple({Value(x)}, 0.1 + 0.8 * rng.NextDouble()).ok());
    for (int64_t k = 0; k < 3; ++k) {
      PDB_CHECK(s.AddTuple({Value(x), Value((x + 7 * k + 1) % n)},
                           0.1 + 0.8 * rng.NextDouble())
                    .ok());
    }
  }
  Database db;
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  ProbDatabase pdb(std::move(db));
  const std::string query = state.range(1) == 0
                                ? "exists x exists y (R(x) & !S(x,y))"
                                : "exists x exists y (S(x,y) & !R(x))";
  Session session(&pdb, {.num_threads = 1, .cache_results = false});
  PDB_CHECK(session.Query(query).ok());
  for (auto _ : state) {
    auto answer = session.Query(query);
    PDB_CHECK(answer.ok() && answer->method == InferenceMethod::kLifted);
    benchmark::DoNotOptimize(answer->probability);
  }
}
BENCHMARK(BM_NegatedSentenceLifted)
    ->ArgNames({"n", "neg_r"})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// M11: durable write throughput — group commit and batched records.
// ---------------------------------------------------------------------------

/// MemEnv whose WAL syncs block ~`sync_cost_us` each, standing in for a
/// real fsync (a real disk is slower still, which only widens the group
/// commit win). Sleep, not busy-wait: a real fsync parks the caller while
/// the device works, leaving the CPU to other writers — a spin here would
/// instead burn a core and starve the very pile-up being measured.
class SlowSyncEnv : public Env {
 public:
  explicit SlowSyncEnv(uint64_t sync_cost_us) : sync_cost_us_(sync_cost_us) {}

  uint64_t wal_syncs() const {
    return wal_syncs_.load(std::memory_order_relaxed);
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto file = mem_.NewWritableFile(path);
    if (!file.ok()) return file.status();
    return Wrap(path, std::move(*file));
  }
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    auto file = mem_.NewAppendableFile(path);
    if (!file.ok()) return file.status();
    return Wrap(path, std::move(*file));
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return mem_.ReadFileToString(path, out);
  }
  bool FileExists(const std::string& path) override {
    return mem_.FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return mem_.GetFileSize(path);
  }
  Result<std::vector<std::string>> GetChildren(
      const std::string& dir) override {
    return mem_.GetChildren(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return mem_.RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return mem_.RenameFile(from, to);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return mem_.CreateDirIfMissing(dir);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return mem_.TruncateFile(path, size);
  }

 private:
  class SlowFile : public WritableFile {
   public:
    SlowFile(std::unique_ptr<WritableFile> inner, SlowSyncEnv* env)
        : inner_(std::move(inner)), env_(env) {}
    Status Append(std::string_view data) override {
      return inner_->Append(data);
    }
    Status Flush() override { return inner_->Flush(); }
    Status Sync() override {
      env_->wal_syncs_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::microseconds(env_->sync_cost_us_));
      return inner_->Sync();
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    SlowSyncEnv* env_;
  };

  std::unique_ptr<WritableFile> Wrap(const std::string& path,
                                     std::unique_ptr<WritableFile> inner) {
    if (path.find("wal-") == std::string::npos) return inner;
    return std::make_unique<SlowFile>(std::move(inner), this);
  }

  MemEnv mem_;
  const uint64_t sync_cost_us_;
  std::atomic<uint64_t> wal_syncs_{0};
};

// M11: concurrent single-row writers against one DurableDatabase, 1/2/4/8
// threads x sync modes. Under kAlways the 1-writer row IS the per-record-
// sync baseline (no concurrency, one 500us "fsync" per insert; the
// group-commit window is configured but a lone writer skips it); with 8
// writers the commit leader waits out the window for stragglers and
// amortizes one sync across the whole pile-up, so throughput must scale
// far past the sync cost (the acceptance bar is >= 5x the baseline). The
// exported syncs_per_op counter shows the amortization directly.
void BM_DurableWriteConcurrent(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool sync_always = state.range(1) != 0;
  constexpr int kPerThread = 64;
  SlowSyncEnv env(/*sync_cost_us=*/5000);
  DurableOptions options;
  options.env = &env;
  options.sync_mode = sync_always ? SyncMode::kAlways : SyncMode::kNone;
  options.group_commit_window_us = 1000;
  auto db = DurableDatabase::Open("/bench", options);
  PDB_CHECK(db.ok());
  PDB_CHECK((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
  std::atomic<int64_t> next{0};
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          int64_t v = next.fetch_add(1, std::memory_order_relaxed);
          PDB_CHECK((*db)->Insert("R", {Value(v)}, 0.5).ok());
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const int64_t ops =
      state.iterations() * static_cast<int64_t>(threads) * kPerThread;
  state.SetItemsProcessed(ops);
  state.counters["threads"] = threads;
  state.counters["syncs_per_op"] =
      ops == 0 ? 0.0
               : static_cast<double>(env.wal_syncs()) /
                     static_cast<double>(ops);
  PDB_CHECK((*db)->Close().ok());
}
BENCHMARK(BM_DurableWriteConcurrent)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({1, 0})
    ->Args({8, 0})
    ->UseRealTime();

// M11: the batch API from a single writer. One InsertMany of `batch` rows
// is one WAL record and one sync; batch=1 degenerates to the per-record
// path. Measures the pure batching win with no concurrency in the mix.
void BM_DurableInsertMany(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  SlowSyncEnv env(/*sync_cost_us=*/5000);
  DurableOptions options;
  options.env = &env;
  options.sync_mode = SyncMode::kAlways;
  auto db = DurableDatabase::Open("/bench", options);
  PDB_CHECK(db.ok());
  PDB_CHECK((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
  int64_t next = 0;
  for (auto _ : state) {
    std::vector<std::pair<Tuple, double>> rows;
    rows.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      rows.push_back({{Value(next++)}, 0.5});
    }
    PDB_CHECK((*db)->InsertMany("R", std::move(rows)).ok());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  PDB_CHECK((*db)->Close().ok());
}
BENCHMARK(BM_DurableInsertMany)->Arg(1)->Arg(64)->Arg(512)->UseRealTime();

void BM_BigIntMultiply(benchmark::State& state) {
  BigInt a = BigInt::Factorial(static_cast<uint64_t>(state.range(0)));
  BigInt b = a + BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMultiply)->Arg(50)->Arg(200)->Arg(800);

void BM_BigRationalNormalize(benchmark::State& state) {
  BigRational p = BigRational::FromDouble(0.7).Pow(
      static_cast<uint64_t>(state.range(0)));
  BigRational q = BigRational::FromDouble(0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p * q);
  }
}
BENCHMARK(BM_BigRationalNormalize)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

/// Console output plus a machine-readable BENCH_micro.json export. Rates
/// are computed against wall-clock time (not CPU time): thread scaling is
/// precisely what the file is meant to track.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      double iters = run.iterations > 0
                         ? static_cast<double>(run.iterations)
                         : 1.0;
      rec.wall_ms = run.real_accumulated_time / iters * 1e3;
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        // Already finalized to a rate (per second of the measured time
        // base; our sampling benches use UseRealTime, i.e. wall clock).
        rec.samples_per_sec = items->second.value;
      }
      auto threads = run.counters.find("threads");
      rec.threads = threads != run.counters.end()
                        ? static_cast<int>(threads->second.value)
                        : static_cast<int>(run.threads);
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    bench::WriteBenchJson(path_, records_);
    std::printf("wrote %zu records to %s\n", records_.size(), path_.c_str());
    ConsoleReporter::Finalize();
  }

 private:
  std::string path_;
  std::vector<bench::BenchRecord> records_;
};

}  // namespace pdb

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  pdb::JsonExportReporter reporter("BENCH_micro.json");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
