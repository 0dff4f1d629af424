#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "boolean/lineage.h"
#include "lifted/lifted.h"
#include "logic/parser.h"
#include "plans/bounds.h"
#include "plans/enumerate.h"
#include "plans/plan.h"
#include "test_common.h"
#include "wmc/dpll.h"

namespace pdb {
namespace {

ConjunctiveQuery CqOf(const std::string& shorthand) {
  auto fo = ParseUcqShorthand(shorthand);
  PDB_CHECK(fo.ok());
  auto ucq = FoToUcq(*fo);
  PDB_CHECK(ucq.ok() && ucq->size() == 1);
  return ucq->disjuncts()[0];
}

double GroundTruth(const ConjunctiveQuery& cq, const Database& db) {
  FormulaManager mgr;
  auto lineage = BuildUcqLineage(Ucq({cq}), db, &mgr);
  PDB_CHECK(lineage.ok());
  DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs));
  return *counter.Compute(lineage->root);
}

// ---------------------------------------------------------------------------
// The paper's Plan_1 / Plan_2 example (§6 and footnote 9)
// ---------------------------------------------------------------------------

TEST(PlansTest, PaperFootnote9ClosedForms) {
  testing::Figure1Probs p;
  Database db = testing::BuildFigure1Database(p);
  ConjunctiveQuery cq = CqOf("R(x), S(x,y)");
  auto vars = cq.Variables();
  std::vector<std::string> var_list(vars.begin(), vars.end());
  // Identify which renamed variable plays x (the one in both atoms).
  std::string x = *RootVariables(cq).begin();
  std::string y;
  for (const auto& v : vars) {
    if (v != x) y = v;
  }
  // Plan_1: project everything after the join == eliminate x then y.
  auto plan1 = PlanForEliminationOrder(cq, {x, y});
  ASSERT_TRUE(plan1.ok());
  double got1 = *ExecuteBooleanPlan(*plan1, db);
  double expect1 = 1 - (1 - p.p1 * p.q1) * (1 - p.p1 * p.q2) *
                           (1 - p.p2 * p.q3) * (1 - p.p2 * p.q4) *
                           (1 - p.p2 * p.q5);
  EXPECT_NEAR(got1, expect1, 1e-12);
  // Plan_2: pre-aggregate S on x, then join with R == eliminate y then x.
  auto plan2 = PlanForEliminationOrder(cq, {y, x});
  ASSERT_TRUE(plan2.ok());
  double got2 = *ExecuteBooleanPlan(*plan2, db);
  double expect2 =
      1 - (1 - p.p1 * (1 - (1 - p.q1) * (1 - p.q2))) *
              (1 - p.p2 * (1 - (1 - p.q3) * (1 - p.q4) * (1 - p.q5)));
  EXPECT_NEAR(got2, expect2, 1e-12);
  // Plan_2 is the safe one: equals the true probability.
  EXPECT_NEAR(got2, GroundTruth(cq, db), 1e-12);
  // Plan_1 is an upper bound (Theorem 6.1).
  EXPECT_GE(got1, got2 - 1e-12);
}

TEST(PlansTest, SafePlanMatchesLiftedOnHierarchicalQueries) {
  const char* queries[] = {"R(x), S(x,y)", "R(x), S(x,y), U(x,y)",
                           "R(x), T(y)", "S(x,y)"};
  for (const char* text : queries) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      Database db;
      Rng rng(seed * 131 + 7);
      testing::AddRandomRelation(&db, "R", 1, &rng);
      testing::AddRandomRelation(&db, "S", 2, &rng);
      testing::AddRandomRelation(&db, "T", 1, &rng);
      testing::AddRandomRelation(&db, "U", 2, &rng);
      ConjunctiveQuery cq = CqOf(text);
      auto plan = BuildSafePlan(cq);
      ASSERT_TRUE(plan.ok()) << text;
      auto plan_value = ExecuteBooleanPlan(*plan, db);
      ASSERT_TRUE(plan_value.ok()) << text;
      auto lifted = LiftedProbability(Ucq({cq}), db);
      ASSERT_TRUE(lifted.ok()) << text;
      EXPECT_NEAR(*plan_value, *lifted, 1e-10) << text << " seed " << seed;
    }
  }
}

TEST(PlansTest, NoSafePlanForNonHierarchical) {
  EXPECT_EQ(BuildSafePlan(CqOf("R(x), S(x,y), T(y)")).status().code(),
            StatusCode::kUnsupported);
}

TEST(PlansTest, PlanEnumerationBasics) {
  ConjunctiveQuery cq = CqOf("R(x), S(x,y)");
  auto plans = EnumerateAllPlans(cq);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 2u);  // two variable orders, distinct plans
  // Too many variables is guarded.
  EXPECT_EQ(EnumerateAllPlans(CqOf("A(a,b), B(c,d), C(e,f), D(g,h)"))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  // Self-joins are rejected.
  EXPECT_FALSE(PlanForEliminationOrder(CqOf("S(x,y), S(y,z)"),
                                       {"x", "y", "z"})
                   .ok());
}

TEST(PlansTest, ExecuteRejectsNonBooleanPlan) {
  Database db = testing::BuildFigure1Database();
  PlanPtr scan = PlanNode::Scan(Atom("R", {Term::Var("x")}));
  EXPECT_FALSE(ExecuteBooleanPlan(scan, db).ok());
  auto rel = ExecutePlan(scan, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->rows.size(), 3u);
}

TEST(PlansTest, ScanHandlesConstantsAndRepeats) {
  Database db;
  Relation s("S", Schema::Anonymous(2));
  ASSERT_TRUE(s.AddTuple({Value(1), Value(1)}, 0.5).ok());
  ASSERT_TRUE(s.AddTuple({Value(1), Value(2)}, 0.25).ok());
  ASSERT_TRUE(db.AddRelation(std::move(s)).ok());
  PlanPtr diag = PlanNode::Scan(Atom("S", {Term::Var("x"), Term::Var("x")}));
  auto diag_rel = ExecutePlan(diag, db);
  ASSERT_TRUE(diag_rel.ok());
  EXPECT_EQ(diag_rel->rows.size(), 1u);
  PlanPtr sel =
      PlanNode::Scan(Atom("S", {Term::Const(Value(1)), Term::Var("y")}));
  auto sel_rel = ExecutePlan(sel, db);
  ASSERT_TRUE(sel_rel.ok());
  EXPECT_EQ(sel_rel->rows.size(), 2u);
}

// ---------------------------------------------------------------------------
// Theorem 6.1: bounds bracket the truth
// ---------------------------------------------------------------------------

class PlanBoundsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanBoundsTest, BoundsBracketGroundTruth) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Database db;
    Rng rng(seed * 977 + 3);
    testing::RandomTidOptions options;
    options.domain_size = 3;
    testing::AddRandomRelation(&db, "R", 1, &rng, options);
    testing::AddRandomRelation(&db, "S", 2, &rng, options);
    testing::AddRandomRelation(&db, "T", 1, &rng, options);
    ConjunctiveQuery cq = CqOf(GetParam());
    auto bounds = ComputePlanBounds(cq, db);
    ASSERT_TRUE(bounds.ok());
    double truth = GroundTruth(cq, db);
    EXPECT_LE(bounds->lower, truth + 1e-9)
        << GetParam() << " seed " << seed;
    EXPECT_GE(bounds->upper, truth - 1e-9)
        << GetParam() << " seed " << seed;
    if (bounds->safe_value.has_value()) {
      EXPECT_NEAR(*bounds->safe_value, truth, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, PlanBoundsTest,
                         ::testing::Values("R(x), S(x,y), T(y)",  // #P-hard
                                           "R(x), S(x,y)",        // safe
                                           "S(x,y), T(y)"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string("q") +
                                  std::to_string(i.index);
                         });

TEST(PlanBoundsTest2, DissociationCountsOccurrences) {
  // In H0's lineage every R(a) occurs once per S(a,b),T(b) pair.
  Database db;
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  Relation t("T", Schema::Anonymous(1));
  ASSERT_TRUE(r.AddTuple({Value(1)}, 0.5).ok());
  ASSERT_TRUE(t.AddTuple({Value(1)}, 0.5).ok());
  ASSERT_TRUE(t.AddTuple({Value(2)}, 0.5).ok());
  ASSERT_TRUE(s.AddTuple({Value(1), Value(1)}, 0.5).ok());
  ASSERT_TRUE(s.AddTuple({Value(1), Value(2)}, 0.5).ok());
  ASSERT_TRUE(db.AddRelation(std::move(r)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(s)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(t)).ok());
  ConjunctiveQuery cq = CqOf("R(x), S(x,y), T(y)");
  auto dnf = BuildUcqDnf(Ucq({cq}), db);
  ASSERT_TRUE(dnf.ok());
  const uint64_t copies_before = Relation::CopyCount();
  auto dissociated = DissociateForLowerBound(*dnf, db);
  ASSERT_TRUE(dissociated.ok());
  // R(1) occurs in 2 lineage terms: prob -> 1 - (1-0.5)^(1/2).
  double expected = 1.0 - std::pow(0.5, 0.5);
  EXPECT_NEAR((*dissociated->Get("R"))->prob(0), expected, 1e-12);
  // S tuples occur once each: unchanged.
  EXPECT_DOUBLE_EQ((*dissociated->Get("S"))->prob(0), 0.5);
  // Only R changed, so only R was copied; the input keeps its own R.
  EXPECT_EQ(Relation::CopyCount(), copies_before + 1);
  EXPECT_NE(*dissociated->Get("R"), *db.Get("R"));
  EXPECT_DOUBLE_EQ((*db.Get("R"))->prob(0), 0.5);
  EXPECT_EQ(*dissociated->Get("S"), *db.Get("S"));
  EXPECT_EQ(*dissociated->Get("T"), *db.Get("T"));
}

// The dissociation reads k off the DNF's terms. On random self-join-free
// CQs it must give every tuple exactly the probability a reference count
// gives: k = the number of the reference matcher's matches that use the
// row, each match counting a row once.
TEST(PlanBoundsTest2, DissociationMatchesReferenceCounts) {
  const char* vars[] = {"x", "y", "z"};
  size_t reweighted = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 104729 + 11);
    Database db = testing::RandomVocabularyDb(&rng);
    // Up to four atoms over distinct relations: self-join-free.
    std::vector<std::string> relations = {"R", "S", "T", "U"};
    ConjunctiveQuery cq;
    const size_t num_atoms = 1 + rng.Uniform(4);
    for (size_t i = 0; i < num_atoms; ++i) {
      size_t pick = rng.Uniform(relations.size());
      std::string name = relations[pick];
      relations.erase(relations.begin() + pick);
      std::vector<Term> args;
      for (size_t j = 0; j < (*db.Get(name))->arity(); ++j) {
        args.push_back(rng.Bernoulli(0.15)
                           ? Term::Const(Value(
                                 static_cast<int64_t>(1 + rng.Uniform(3))))
                           : Term::Var(vars[rng.Uniform(3)]));
      }
      cq.AddAtom(Atom(name, std::move(args)));
    }
    ASSERT_TRUE(cq.IsSelfJoinFree());
    SCOPED_TRACE(cq.ToString());

    std::map<std::pair<std::string, size_t>, size_t> counts;
    ASSERT_TRUE(EnumerateCqMatchesReference(cq, db, [&](const CqMatch& m) {
                  std::set<std::pair<std::string, size_t>> rows;
                  for (const LineageVar& lv : m.atom_rows) {
                    rows.emplace(lv.relation, lv.row);
                  }
                  for (const auto& row : rows) ++counts[row];
                }).ok());

    auto dnf = BuildUcqDnf(Ucq({cq}), db);
    ASSERT_TRUE(dnf.ok());
    auto dissociated = DissociateForLowerBound(*dnf, db);
    ASSERT_TRUE(dissociated.ok());
    for (const char* name : {"R", "S", "T", "U"}) {
      const Relation& before = **db.Get(name);
      const Relation& after = **dissociated->Get(name);
      ASSERT_EQ(after.size(), before.size());
      for (size_t row = 0; row < before.size(); ++row) {
        auto it = counts.find({name, row});
        const size_t k = it == counts.end() ? 0 : it->second;
        double expected = before.prob(row);
        if (k > 1) {
          // 1 − (1 − p)^{1/k}, computed without rounding 1 − p.
          expected = -std::expm1(std::log1p(-expected) /
                                 static_cast<double>(k));
          ++reweighted;
        }
        EXPECT_EQ(after.prob(row), expected)
            << name << " row " << row << " k " << k;
      }
    }
  }
  // The cases exercised the reweighting, not only the k <= 1 identity.
  EXPECT_GT(reweighted, 100u);
}

TEST(PlanBoundsTest2, SafeQueryBoundsAreTight) {
  Database db = testing::BuildFigure1Database();
  ConjunctiveQuery cq = CqOf("R(x), S(x,y)");
  auto bounds = ComputePlanBounds(cq, db);
  ASSERT_TRUE(bounds.ok());
  double truth = GroundTruth(cq, db);
  // The safe plan is among the enumerated plans, so the upper bound is
  // exactly the truth; the lower bound still brackets from below.
  EXPECT_NEAR(bounds->upper, truth, 1e-12);
  EXPECT_LE(bounds->lower, truth + 1e-12);
  ASSERT_TRUE(bounds->safe_value.has_value());
  EXPECT_NEAR(*bounds->safe_value, truth, 1e-12);
}

}  // namespace
}  // namespace pdb
