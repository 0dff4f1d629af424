// Differential consistency harness: every inference backend evaluated on
// the same random (database, query) cases and cross-checked pairwise.
//
// 8 seeds x 25 rounds = 200 random cases. Per case the reference value is
// DPLL with component decomposition; against it we check
//  - DPLL without components            (same arithmetic, reordered: 1e-9)
//  - DPLL + shared WMC cache, cold/warm (bit-identical: EXPECT_EQ)
//  - brute-force enumeration            (ground truth when <= 18 vars)
//  - lifted inference                   (when the query is safe)
//  - lifted, its negation and the plan bounds through a seed-lifetime
//    index cache                        (bit-identical: EXPECT_EQ)
//  - OBDD and decision-DNNF compilation (exact backends)
//  - Karp-Luby sampling on 4 pool workers (within 4 sigma)
// Any disagreement is a bug in at least one backend.

#include <gtest/gtest.h>

#include <cmath>

#include "boolean/lineage.h"
#include "exec/context.h"
#include "exec/thread_pool.h"
#include "kc/obdd.h"
#include "kc/order.h"
#include "kc/trace_compiler.h"
#include "lifted/lifted.h"
#include "logic/parser.h"
#include "plans/bounds.h"
#include "plans/enumerate.h"
#include "plans/plan.h"
#include "storage/index_cache.h"
#include "test_common.h"
#include "wmc/dpll.h"
#include "wmc/enumeration.h"
#include "wmc/montecarlo.h"
#include "wmc/wmc_cache.h"

namespace pdb {
namespace {

class DifferentialConsistency : public ::testing::TestWithParam<uint64_t> {};

std::vector<uint64_t> StatsFields(const LiftedStats& s) {
  return {s.independent_unions, s.independent_products,
          s.separator_groundings, s.inclusion_exclusions,
          s.ie_max_width,       s.ie_terms_total,
          s.ie_terms_cancelled, s.cache_hits,
          s.base_evaluations};
}

TEST_P(DifferentialConsistency, AllBackendsAgreeOnRandomCases) {
  Rng rng(GetParam() * 6364136223846793005ull + 1442695040888963407ull);
  // One shared 4-wide pool for the whole seed, as a Session provides: the
  // Karp-Luby shards below reuse it across many queries.
  ThreadPool pool(4);
  // One shared WMC cache for the whole seed, like a Session's: entries from
  // earlier rounds stay live (distinct formula managers, overlapping
  // subformula structure), so warm hits across rounds are exercised too.
  WmcCache shared_cache;
  // One index cache for the whole seed, too. Each round frees the previous
  // round's database, so relation addresses get reused under it.
  IndexCache index_cache;
  ExecContext cached_ctx;
  cached_ctx.set_index_cache(&index_cache);
  for (int round = 0; round < 25; ++round) {
    // A fresh random database AND a fresh random query every round.
    Database db = testing::RandomVocabularyDb(&rng);
    Ucq ucq = testing::RandomUcq(&rng);
    SCOPED_TRACE(ucq.ToString());

    FormulaManager mgr;
    auto lineage = BuildUcqLineage(ucq, db, &mgr);
    ASSERT_TRUE(lineage.ok());
    const WeightMap weights = WeightsFromProbabilities(lineage->probs);

    // Grounding differential: the compiled join engine — under both
    // join-order policies — must reproduce the reference backtracking
    // matcher's match stream exactly.
    for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
      std::vector<std::vector<size_t>> expected;
      ASSERT_TRUE(EnumerateCqMatchesReference(cq, db,
                                              [&](const CqMatch& m) {
                                                std::vector<size_t> rows;
                                                for (const LineageVar& lv :
                                                     m.atom_rows) {
                                                  rows.push_back(lv.row);
                                                }
                                                expected.push_back(
                                                    std::move(rows));
                                              })
                      .ok());
      for (AtomOrderPolicy policy : {AtomOrderPolicy::kCostBased,
                                     AtomOrderPolicy::kSyntactic}) {
        GroundingOptions per_policy;
        per_policy.order = policy;
        std::vector<std::vector<size_t>> actual;
        Status st = EnumerateCqMatches(
            cq, db,
            [&](const CqMatch& m) {
              std::vector<size_t> rows;
              for (const LineageVar& lv : m.atom_rows) {
                rows.push_back(lv.row);
              }
              actual.push_back(std::move(rows));
            },
            per_policy);
        ASSERT_TRUE(st.ok());
        EXPECT_EQ(actual, expected);
      }
    }

    // Reference: DPLL with component decomposition.
    DpllCounter exact(&mgr, weights);
    auto reference = exact.Compute(lineage->root);
    ASSERT_TRUE(reference.ok());
    ASSERT_GE(*reference, -1e-12);
    ASSERT_LE(*reference, 1.0 + 1e-12);

    // DPLL without component decomposition: same Shannon expansions in a
    // different association order.
    DpllOptions flat_options;
    flat_options.use_components = false;
    DpllCounter flat(&mgr, weights, flat_options);
    auto flat_value = flat.Compute(lineage->root);
    ASSERT_TRUE(flat_value.ok());
    EXPECT_NEAR(*flat_value, *reference, 1e-9);

    // DPLL against the seed-lifetime shared cache, twice: the first run
    // may hit entries published by any earlier round, the second run hits
    // at least its own top-level entry. Every hit must be bit-identical to
    // the cache-less reference — this is the load-bearing guarantee of
    // cross-query memoization.
    for (int warm = 0; warm < 2; ++warm) {
      DpllOptions cached_options;
      cached_options.shared_cache = &shared_cache;
      cached_options.shared_cache_min_vars = 2;
      DpllCounter cached(&mgr, weights, cached_options);
      auto cached_value = cached.Compute(lineage->root);
      ASSERT_TRUE(cached_value.ok());
      EXPECT_EQ(*cached_value, *reference);
    }

    // Ground truth by brute-force enumeration (2^n assignments).
    if (mgr.VarsOf(lineage->root).size() <= 18) {
      auto brute = EnumerateProbability(&mgr, lineage->root, lineage->probs);
      ASSERT_TRUE(brute.ok());
      EXPECT_NEAR(*brute, *reference, 1e-9);
    }

    // Lifted inference whenever the safety rules accept the query.
    auto lifted = LiftedProbability(ucq, db);
    if (lifted.ok()) {
      EXPECT_NEAR(*lifted, *reference, 1e-8);
    } else {
      EXPECT_EQ(lifted.status().code(), StatusCode::kUnsupported);
    }

    // The lifted engine, the negated sentence and the plan bounds read
    // rows through index probes; served from the seed-lifetime cache they
    // must reproduce the uncached bits.
    {
      LiftedEngine plain(db);
      LiftedEngine cached(db, {}, &cached_ctx);
      auto plain_p = plain.Compute(ucq);
      auto cached_p = cached.Compute(ucq);
      ASSERT_EQ(cached_p.status().code(), plain_p.status().code());
      if (plain_p.ok()) {
        EXPECT_EQ(*cached_p, *plain_p);
      }
      EXPECT_EQ(StatsFields(cached.stats()), StatsFields(plain.stats()));

      FoPtr negation = Fo::Not(ucq.ToFo());
      auto plain_neg = LiftedProbabilityFo(negation, db);
      auto cached_neg =
          LiftedProbabilityFo(negation, db, {}, nullptr, &cached_ctx);
      ASSERT_EQ(cached_neg.status().code(), plain_neg.status().code());
      if (plain_neg.ok()) {
        EXPECT_EQ(*cached_neg, *plain_neg);
      }

      for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
        if (!cq.IsSelfJoinFree()) continue;
        auto plain_b = ComputePlanBounds(cq, db);
        auto cached_b = ComputePlanBounds(cq, db, 7, &cached_ctx);
        ASSERT_EQ(cached_b.status().code(), plain_b.status().code());
        if (!plain_b.ok()) continue;
        EXPECT_EQ(cached_b->lower, plain_b->lower);
        EXPECT_EQ(cached_b->upper, plain_b->upper);
        EXPECT_EQ(cached_b->num_plans, plain_b->num_plans);
        EXPECT_EQ(cached_b->safe_value, plain_b->safe_value);
      }
    }

    // Knowledge compilation: OBDD.
    Obdd obdd(IdentityOrder(lineage->vars.size()));
    auto obdd_root = obdd.Compile(&mgr, lineage->root);
    ASSERT_TRUE(obdd_root.ok());
    EXPECT_NEAR(obdd.Wmc(*obdd_root, weights), *reference, 1e-8);

    // Knowledge compilation: decision-DNNF from the DPLL trace.
    auto compiled = CompileToDecisionDnnf(&mgr, lineage->root, weights);
    ASSERT_TRUE(compiled.ok());
    EXPECT_NEAR(compiled->probability, *reference, 1e-8);
    EXPECT_NEAR(compiled->circuit.Wmc(compiled->root, weights), *reference,
                1e-8);

    // Karp-Luby FPRAS on the DNF lineage: unbiased, so the estimate must
    // fall within 4 standard errors of the truth (plus an epsilon for the
    // degenerate zero-variance cases).
    auto dnf = BuildUcqDnf(ucq, db);
    ASSERT_TRUE(dnf.ok());
    if (!dnf->terms.empty()) {
      ExecContext ctx(&pool);
      Rng mc_rng(rng.Next());
      auto estimate =
          KarpLubyDnf(dnf->terms, dnf->probs, 20000, &mc_rng, &ctx);
      if (estimate.ok()) {
        EXPECT_LE(std::abs(estimate->value - *reference),
                  4.0 * estimate->std_error + 1e-9)
            << "Karp-Luby " << estimate->value << " vs " << *reference
            << " (stderr " << estimate->std_error << ")";
      } else {
        // Rejected only when every term has probability zero.
        EXPECT_NEAR(*reference, 0.0, 1e-12);
      }
    } else {
      EXPECT_EQ(*reference, 0.0);
    }
  }
  // The cached runs above really were served from the cache.
  EXPECT_GT(index_cache.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialConsistency,
                         ::testing::Range<uint64_t>(0, 8));

// Small probabilities: over a 3x3 instance with every tuple at p, each
// exact-labelled backend must keep its relative error against exact
// rational enumeration, where 1 - prod(1 - p) would round the answer
// away (it returned 0 for R(x), S(x,y) at p = 1e-10).
class SmallProbabilitySweep : public ::testing::TestWithParam<double> {};

/// R(1..3), T(1..3) and S over {1,2,3}^2, every tuple at probability `p`.
Database UniformDatabase(double p) {
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  Relation t("T", Schema::Anonymous(1));
  for (int64_t i = 1; i <= 3; ++i) {
    PDB_CHECK(r.AddTuple({Value(i)}, p).ok());
    PDB_CHECK(t.AddTuple({Value(i)}, p).ok());
    for (int64_t j = 1; j <= 3; ++j) {
      PDB_CHECK(s.AddTuple({Value(i), Value(j)}, p).ok());
    }
  }
  Database db;
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

/// |got - want| / |want| against the exact probability of `ucq` over `db`.
double RelativeError(double got, const Ucq& ucq, const Database& db) {
  FormulaManager mgr;
  auto lineage = BuildUcqLineage(ucq, db, &mgr);
  PDB_CHECK(lineage.ok());
  auto exact = EnumerateProbabilityExact(&mgr, lineage->root, lineage->probs);
  PDB_CHECK(exact.ok());
  const double want = exact->ToDouble();
  PDB_CHECK(want > 0.0);
  return std::fabs(got - want) / want;
}

Ucq ParseUcq(const std::string& text) {
  auto ucq = FoToUcq(*ParseUcqShorthand(text));
  PDB_CHECK(ucq.ok());
  return *ucq;
}

TEST_P(SmallProbabilitySweep, ExactBackendsKeepRelativePrecision) {
  const double p = GetParam();
  Database db = UniformDatabase(p);
  for (const char* text : {"R(x), S(x,y)", "S(x,y), T(y)"}) {
    SCOPED_TRACE(text);
    Ucq ucq = ParseUcq(text);
    auto lifted = LiftedProbability(ucq, db);
    ASSERT_TRUE(lifted.ok());
    EXPECT_LE(RelativeError(*lifted, ucq, db), 1e-12) << *lifted;
  }

  Ucq rs = ParseUcq("R(x), S(x,y)");
  auto plan = BuildSafePlan(rs.disjuncts()[0]);
  ASSERT_TRUE(plan.ok());
  auto planned = ExecuteBooleanPlan(*plan, db);
  ASSERT_TRUE(planned.ok());
  EXPECT_LE(RelativeError(*planned, rs, db), 1e-12) << *planned;

  Ucq h0 = ParseUcq("R(x), S(x,y), T(y)");
  FormulaManager mgr;
  auto lineage = BuildUcqLineage(h0, db, &mgr);
  ASSERT_TRUE(lineage.ok());
  DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs));
  auto counted = counter.Compute(lineage->root);
  ASSERT_TRUE(counted.ok());
  EXPECT_LE(RelativeError(*counted, h0, db), 1e-12) << *counted;

  // Q_J goes through inclusion-exclusion, whose alternating sum still
  // cancels below p = 1e-6.
  if (p >= 1e-6) {
    Ucq qj = ParseUcq("R(x), S(x,y), T(u), S(u,v)");
    auto lifted_qj = LiftedProbability(qj, db);
    ASSERT_TRUE(lifted_qj.ok());
    EXPECT_LE(RelativeError(*lifted_qj, qj, db), 1e-9) << *lifted_qj;
  }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, SmallProbabilitySweep,
                         ::testing::Values(1e-2, 1e-4, 1e-6, 1e-8, 1e-10,
                                           1e-12, 1 - 1e-9));

}  // namespace
}  // namespace pdb
