#include <gtest/gtest.h>

#include "boolean/lineage.h"
#include "exec/context.h"
#include "lifted/lifted.h"
#include "lifted/safety.h"
#include "logic/parser.h"
#include "storage/index_cache.h"
#include "test_common.h"
#include "wmc/dpll.h"
#include "wmc/enumeration.h"

namespace pdb {
namespace {

Ucq UcqOf(const std::string& shorthand) {
  auto fo = ParseUcqShorthand(shorthand);
  PDB_CHECK(fo.ok());
  auto ucq = FoToUcq(*fo);
  PDB_CHECK(ucq.ok());
  return *ucq;
}

// Exact grounded reference probability of a UCQ.
double GroundTruth(const Ucq& ucq, const Database& db) {
  FormulaManager mgr;
  auto lineage = BuildUcqLineage(ucq, db, &mgr);
  PDB_CHECK(lineage.ok());
  DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs));
  auto p = counter.Compute(lineage->root);
  PDB_CHECK(p.ok());
  return *p;
}

// ---------------------------------------------------------------------------
// Example 2.1 end to end
// ---------------------------------------------------------------------------

TEST(LiftedTest, Example21MatchesPaperClosedForm) {
  testing::Figure1Probs probs;
  Database db = testing::BuildFigure1Database(probs);
  auto q = ParseFo("forall x forall y (S(x,y) => R(x))");
  ASSERT_TRUE(q.ok());
  auto p = LiftedProbabilityFo(*q, db);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_NEAR(*p, testing::Example21ClosedForm(probs), 1e-12);
}

TEST(LiftedTest, Example21MatchesBruteForceEnumeration) {
  Database db = testing::BuildFigure1Database();
  auto q = ParseFo("forall x forall y (S(x,y) => R(x))");
  FormulaManager mgr;
  auto lineage = BuildLineage(*q, db, &mgr);
  ASSERT_TRUE(lineage.ok());
  double brute = *EnumerateProbability(&mgr, lineage->root, lineage->probs);
  double lifted = *LiftedProbabilityFo(*q, db);
  EXPECT_NEAR(lifted, brute, 1e-12);
}

// ---------------------------------------------------------------------------
// Basic rules
// ---------------------------------------------------------------------------

TEST(LiftedTest, SingleAtomExistential) {
  Database db = testing::BuildFigure1Database();
  testing::Figure1Probs p;
  // P(exists x R(x)) = 1 - (1-p1)(1-p2)(1-p3).
  auto result = LiftedProbability(UcqOf("R(x)"), db);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(*result, 1 - (1 - p.p1) * (1 - p.p2) * (1 - p.p3), 1e-12);
}

TEST(LiftedTest, GroundAtoms) {
  Database db = testing::BuildFigure1Database();
  Ucq ucq({ConjunctiveQuery({Atom("R", {Term::Const(Value("a1"))})})});
  EXPECT_NEAR(*LiftedProbability(ucq, db), 0.3, 1e-12);
  // Conjunction of independent ground atoms.
  Ucq both({ConjunctiveQuery({Atom("R", {Term::Const(Value("a1"))}),
                              Atom("R", {Term::Const(Value("a2"))})})});
  EXPECT_NEAR(*LiftedProbability(both, db), 0.3 * 0.5, 1e-12);
  // Duplicate ground atom is idempotent, not squared.
  Ucq dup({ConjunctiveQuery({Atom("R", {Term::Const(Value("a1"))}),
                             Atom("R", {Term::Const(Value("a1"))})})});
  EXPECT_NEAR(*LiftedProbability(dup, db), 0.3, 1e-12);
  // Absent tuple.
  Ucq absent({ConjunctiveQuery({Atom("R", {Term::Const(Value("zz"))})})});
  EXPECT_NEAR(*LiftedProbability(absent, db), 0.0, 1e-12);
}

TEST(LiftedTest, IndependentUnionAndProduct) {
  Database db;
  Rng rng(42);
  testing::AddRandomRelation(&db, "R", 1, &rng);
  testing::AddRandomRelation(&db, "T", 1, &rng);
  // Independent product: R(x) & T(y).
  Ucq product = UcqOf("R(x), T(y)");
  EXPECT_NEAR(*LiftedProbability(product, db), GroundTruth(product, db),
              1e-10);
  // Independent union: R(x) ; T(y).
  Ucq un = UcqOf("R(x) ; T(y)");
  EXPECT_NEAR(*LiftedProbability(un, db), GroundTruth(un, db), 1e-10);
}

TEST(LiftedTest, HierarchicalJoinMatchesGroundTruth) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db;
    Rng rng(seed);
    testing::AddRandomRelation(&db, "R", 1, &rng);
    testing::AddRandomRelation(&db, "S", 2, &rng);
    Ucq ucq = UcqOf("R(x), S(x,y)");
    auto lifted = LiftedProbability(ucq, db);
    ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();
    EXPECT_NEAR(*lifted, GroundTruth(ucq, db), 1e-10) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Inclusion-exclusion: Q_J (paper §5)
// ---------------------------------------------------------------------------

TEST(LiftedTest, QjNeedsInclusionExclusion) {
  Database db;
  Rng rng(7);
  testing::AddRandomRelation(&db, "R", 1, &rng);
  testing::AddRandomRelation(&db, "S", 2, &rng);
  testing::AddRandomRelation(&db, "T", 1, &rng);
  Ucq qj = UcqOf("R(x), S(x,y), T(u), S(u,v)");
  // With the I/E rule the query is computed and matches ground truth.
  LiftedStats stats;
  auto with_ie = LiftedProbability(qj, db, {}, &stats);
  ASSERT_TRUE(with_ie.ok()) << with_ie.status().ToString();
  EXPECT_NEAR(*with_ie, GroundTruth(qj, db), 1e-10);
  EXPECT_GE(stats.inclusion_exclusions, 1u);
  // Without it the basic rules fail (Theorem 5.1's point).
  LiftedOptions no_ie;
  no_ie.use_inclusion_exclusion = false;
  EXPECT_EQ(LiftedProbability(qj, db, no_ie).status().code(),
            StatusCode::kUnsupported);
}

TEST(LiftedTest, QjSweepAgainstGroundTruth) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    Database db;
    Rng rng(seed);
    testing::RandomTidOptions options;
    options.domain_size = 3;
    testing::AddRandomRelation(&db, "R", 1, &rng, options);
    testing::AddRandomRelation(&db, "S", 2, &rng, options);
    testing::AddRandomRelation(&db, "T", 1, &rng, options);
    Ucq qj = UcqOf("R(x), S(x,y), T(u), S(u,v)");
    auto lifted = LiftedProbability(qj, db);
    ASSERT_TRUE(lifted.ok());
    EXPECT_NEAR(*lifted, GroundTruth(qj, db), 1e-10) << "seed " << seed;
  }
}

TEST(LiftedTest, UnionWithSharedSymbolViaSeparator) {
  // R(x),S(x,y) ; T(u),S(u,v): separator grounding across disjuncts.
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    Database db;
    Rng rng(seed);
    testing::AddRandomRelation(&db, "R", 1, &rng);
    testing::AddRandomRelation(&db, "S", 2, &rng);
    testing::AddRandomRelation(&db, "T", 1, &rng);
    Ucq ucq = UcqOf("R(x), S(x,y) ; T(u), S(u,v)");
    auto lifted = LiftedProbability(ucq, db);
    ASSERT_TRUE(lifted.ok());
    EXPECT_NEAR(*lifted, GroundTruth(ucq, db), 1e-10) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Hard queries fail (as they must: #P-hardness)
// ---------------------------------------------------------------------------

TEST(LiftedTest, H0IsNotLiftable) {
  Database db;
  Rng rng(3);
  testing::AddRandomRelation(&db, "R", 1, &rng);
  testing::AddRandomRelation(&db, "S", 2, &rng);
  testing::AddRandomRelation(&db, "T", 1, &rng);
  // The dual of H0: exists x y (R & S & T) — non-hierarchical.
  auto result = LiftedProbability(UcqOf("R(x), S(x,y), T(y)"), db);
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
  // And through the FO path with the universal H0 itself.
  auto h0 = ParseFo("forall x forall y (R(x) | S(x,y) | T(y))");
  EXPECT_EQ(LiftedProbabilityFo(*h0, db).status().code(),
            StatusCode::kUnsupported);
}

TEST(LiftedTest, RedundantSelfJoinMinimizesToCore) {
  // S(x,y) & S(x,z) is equivalent to its core S(x,y), hence safe — the
  // engine must minimize before recursing (regression: the minimized cache
  // key used to collide with the unminimized computation).
  for (uint64_t seed = 31; seed <= 34; ++seed) {
    Database db;
    Rng rng(seed);
    testing::AddRandomRelation(&db, "S", 2, &rng);
    Ucq ucq = UcqOf("S(x,y), S(x,z)");
    auto lifted = LiftedProbability(ucq, db);
    ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();
    EXPECT_NEAR(*lifted, GroundTruth(ucq, db), 1e-10);
    EXPECT_NEAR(*lifted, GroundTruth(UcqOf("S(x,y)"), db), 1e-10);
  }
}

TEST(LiftedTest, SelfJoinHardQueryFails) {
  // exists x y z (S(x,y) & S(y,z)) is hierarchical but #P-hard [17].
  Database db;
  Rng rng(4);
  testing::AddRandomRelation(&db, "S", 2, &rng);
  auto result = LiftedProbability(UcqOf("S(x,y), S(y,z)"), db);
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Duality (paper §2): P(Q) on D relates to the dual query
// ---------------------------------------------------------------------------

TEST(LiftedTest, UniversalQueryEqualsOneMinusNegation) {
  Database db = testing::BuildFigure1Database();
  auto universal = ParseFo("forall x forall y (S(x,y) => R(x))");
  auto negation = ParseFo("exists x exists y (S(x,y) & !R(x))");
  double p_universal = *LiftedProbabilityFo(*universal, db);
  double p_negation = *LiftedProbabilityFo(*negation, db);
  EXPECT_NEAR(p_universal, 1.0 - p_negation, 1e-12);
}

// The unate rewrite builds its complements for one query: their index
// probes go to the engine's own cache, so repeating a sentence with a
// negated atom cannot grow the session cache, while probes of base
// relations still hit it.
TEST(LiftedTest, ComplementIndexesStayOutOfTheCache) {
  Database db = testing::BuildFigure1Database();
  IndexCache cache;
  ExecContext ctx;
  ctx.set_index_cache(&cache);
  for (const char* text : {"exists x exists y (R(x) & !S(x,y))",
                           "exists x exists y (S(x,y) & !R(x))"}) {
    SCOPED_TRACE(text);
    auto q = ParseFo(text);
    ASSERT_TRUE(q.ok());
    auto uncached = LiftedProbabilityFo(*q, db);
    ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto cached = LiftedProbabilityFo(*q, db, {}, nullptr, &ctx);
      ASSERT_TRUE(cached.ok());
      EXPECT_EQ(*cached, *uncached);
    }
  }
  // Only the second sentence's probe of S on its first column is resident.
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().hits, 0u);
}

// R(x), S__c(x,y) grounds x over R's three values and probes S__c on its
// first column once per value. The index behind those probes is built once
// per call and counted, whether or not the caller has a session cache.
TEST(LiftedTest, EachIndexIsBuiltOncePerCall) {
  Database db = testing::BuildFigure1Database();
  auto q = ParseFo("exists x exists y (R(x) & !S(x,y))");
  ASSERT_TRUE(q.ok());
  IndexCache cache;
  for (IndexCache* session_cache : {static_cast<IndexCache*>(nullptr),
                                    &cache}) {
    ExecContext ctx;
    ctx.set_index_cache(session_cache);
    ASSERT_TRUE(LiftedProbabilityFo(*q, db, {}, nullptr, &ctx).ok());
    ExecReport report = ctx.Report();
    EXPECT_EQ(report.index_builds, 1u);
    EXPECT_EQ(report.index_cache_hits, 2u);
  }
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: every liftable query == ground truth on random TIDs
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* name;
  const char* shorthand;
};

class LiftedSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(LiftedSweepTest, MatchesGroundTruth) {
  for (uint64_t seed = 100; seed < 106; ++seed) {
    Database db;
    Rng rng(seed);
    testing::RandomTidOptions options;
    options.domain_size = 3;
    testing::AddRandomRelation(&db, "R", 1, &rng, options);
    testing::AddRandomRelation(&db, "S", 2, &rng, options);
    testing::AddRandomRelation(&db, "T", 1, &rng, options);
    testing::AddRandomRelation(&db, "U", 2, &rng, options);
    Ucq ucq = UcqOf(GetParam().shorthand);
    auto lifted = LiftedProbability(ucq, db);
    ASSERT_TRUE(lifted.ok())
        << GetParam().name << ": " << lifted.status().ToString();
    EXPECT_NEAR(*lifted, GroundTruth(ucq, db), 1e-9)
        << GetParam().name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SafeQueries, LiftedSweepTest,
    ::testing::Values(
        SweepCase{"single_atom", "S(x,y)"},
        SweepCase{"two_level", "R(x), S(x,y)"},
        SweepCase{"same_root_pair", "R(x), S(x,y), U(x,y)"},
        SweepCase{"product", "R(x), T(y)"},
        SweepCase{"union_same_symbol", "R(x) ; R(y)"},
        SweepCase{"union_disjoint", "R(x) ; T(y)"},
        SweepCase{"union_mixed", "R(x), S(x,y) ; T(u)"},
        SweepCase{"qj", "R(x), S(x,y), T(u), S(u,v)"},
        SweepCase{"union_shared", "R(x), S(x,y) ; T(u), S(u,v)"},
        SweepCase{"three_way_union", "R(x) ; S(x,y) ; T(z)"},
        SweepCase{"constant_in_atom", "S(x,y), R(x) ; S(u,v)"}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Safety / dichotomy classification (Theorems 4.1, 4.3)
// ---------------------------------------------------------------------------

TEST(SafetyTest, SelfJoinFreeDichotomyIsHierarchy) {
  auto hier = UcqOf("R(x), S(x,y)").disjuncts()[0];
  EXPECT_EQ(*ClassifySelfJoinFreeCq(hier), QueryComplexity::kPolynomialTime);
  auto h0 = UcqOf("R(x), S(x,y), T(y)").disjuncts()[0];
  EXPECT_EQ(*ClassifySelfJoinFreeCq(h0), QueryComplexity::kSharpPHard);
  auto self_join = UcqOf("S(x,y), S(y,z)").disjuncts()[0];
  EXPECT_FALSE(ClassifySelfJoinFreeCq(self_join).ok());
}

TEST(SafetyTest, EngineSafetyMatchesHierarchyForSjfCqs) {
  // For self-join-free CQs the engine succeeds exactly on hierarchical
  // queries (Theorem 4.3).
  const char* queries[] = {
      "R(x), S(x,y)",          // hierarchical
      "R(x), S(x,y), U(x,y)",  // hierarchical
      "R(x), S(x,y), T(y)",    // not
      "R(x), T(y)",            // hierarchical (disconnected)
      "S(x,y), T(y)",          // hierarchical (y root? no: at(x)={S},
                               // at(y)={S,T} nested) -> hierarchical
      "R(x), S(x,y), U(y,z)",  // not hierarchical
  };
  for (const char* text : queries) {
    auto cq = UcqOf(text).disjuncts()[0];
    ASSERT_TRUE(cq.IsSelfJoinFree());
    bool hierarchical = IsHierarchical(cq);
    EXPECT_EQ(IsSafeUcq(Ucq({cq})), hierarchical) << text;
  }
}

TEST(SafetyTest, UcqClassification) {
  EXPECT_EQ(ClassifyUcq(UcqOf("R(x), S(x,y), T(u), S(u,v)")),
            QueryComplexity::kPolynomialTime);
  EXPECT_EQ(ClassifyUcq(UcqOf("R(x), S(x,y) ; S(u,v), T(v)")),
            QueryComplexity::kSharpPHard);
  EXPECT_EQ(ClassifyUcq(UcqOf("S(x,y), S(y,z)")),
            QueryComplexity::kSharpPHard);
}

TEST(SafetyTest, CanonicalDatabaseCoversQueryConstants) {
  Ucq with_const({ConjunctiveQuery(
      {Atom("R", {Term::Const(Value(7))}),
       Atom("S", {Term::Const(Value(7)), Term::Var("y")})})});
  auto db = CanonicalDatabase(with_const);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db->Get("R"))->Contains({Value(7)}));
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(LiftedTest, TraceRecordsRules) {
  Database db = testing::BuildFigure1Database();
  std::vector<std::string> trace;
  LiftedOptions options;
  options.trace = &trace;
  ASSERT_TRUE(LiftedProbability(UcqOf("R(x), S(x,y)"), db, options).ok());
  EXPECT_FALSE(trace.empty());
  bool saw_separator = false;
  for (const std::string& line : trace) {
    if (line.find("separator") != std::string::npos) saw_separator = true;
  }
  EXPECT_TRUE(saw_separator);
}

}  // namespace
}  // namespace pdb
