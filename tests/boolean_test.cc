#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "boolean/formula.h"
#include "boolean/lineage.h"
#include "logic/parser.h"
#include "test_common.h"

namespace pdb {
namespace {

// ---------------------------------------------------------------------------
// FormulaManager: construction and simplification
// ---------------------------------------------------------------------------

TEST(FormulaTest, HashConsing) {
  FormulaManager mgr;
  NodeId a = mgr.Var(0);
  NodeId b = mgr.Var(1);
  EXPECT_EQ(mgr.And(a, b), mgr.And(b, a));  // sorted children
  EXPECT_EQ(mgr.Or(a, b), mgr.Or(b, a));
  EXPECT_EQ(mgr.Var(0), a);
  EXPECT_EQ(mgr.Not(mgr.Not(a)), a);
}

TEST(FormulaTest, ConstantFolding) {
  FormulaManager mgr;
  NodeId a = mgr.Var(0);
  EXPECT_EQ(mgr.And(a, mgr.True()), a);
  EXPECT_EQ(mgr.And(a, mgr.False()), mgr.False());
  EXPECT_EQ(mgr.Or(a, mgr.False()), a);
  EXPECT_EQ(mgr.Or(a, mgr.True()), mgr.True());
  EXPECT_EQ(mgr.And(std::vector<NodeId>{}), mgr.True());
  EXPECT_EQ(mgr.Or(std::vector<NodeId>{}), mgr.False());
}

TEST(FormulaTest, ComplementAnnihilation) {
  FormulaManager mgr;
  NodeId a = mgr.Var(0);
  EXPECT_EQ(mgr.And(a, mgr.Not(a)), mgr.False());
  EXPECT_EQ(mgr.Or(a, mgr.Not(a)), mgr.True());
}

TEST(FormulaTest, FlattensNested) {
  FormulaManager mgr;
  NodeId a = mgr.Var(0), b = mgr.Var(1), c = mgr.Var(2);
  NodeId nested = mgr.And(mgr.And(a, b), c);
  NodeId flat = mgr.And(std::vector<NodeId>{a, b, c});
  EXPECT_EQ(nested, flat);
  EXPECT_EQ(mgr.children(flat).size(), 3u);
}

TEST(FormulaTest, VarsOfIsSortedUnion) {
  FormulaManager mgr;
  NodeId f = mgr.Or(mgr.And(mgr.Var(3), mgr.Var(1)), mgr.Var(2));
  std::span<const VarId> vars = mgr.VarsOf(f);
  EXPECT_EQ(std::vector<VarId>(vars.begin(), vars.end()),
            (std::vector<VarId>{1, 2, 3}));
  EXPECT_TRUE(mgr.VarsOf(mgr.True()).empty());
}

TEST(FormulaTest, Evaluate) {
  FormulaManager mgr;
  // (x0 & !x1) | x2
  NodeId f = mgr.Or(mgr.And(mgr.Var(0), mgr.Not(mgr.Var(1))), mgr.Var(2));
  EXPECT_TRUE(mgr.Evaluate(f, {true, false, false}));
  EXPECT_FALSE(mgr.Evaluate(f, {true, true, false}));
  EXPECT_TRUE(mgr.Evaluate(f, {false, false, true}));
  EXPECT_FALSE(mgr.Evaluate(f, {false, false, false}));
}

TEST(FormulaTest, CofactorSimplifies) {
  FormulaManager mgr;
  NodeId f = mgr.Or(mgr.And(mgr.Var(0), mgr.Var(1)), mgr.Var(2));
  EXPECT_EQ(mgr.Cofactor(f, 0, true), mgr.Or(mgr.Var(1), mgr.Var(2)));
  EXPECT_EQ(mgr.Cofactor(f, 0, false), mgr.Var(2));
  EXPECT_EQ(mgr.Cofactor(f, 3, true), f);  // var absent: unchanged
  // Cofactor through negation.
  NodeId g = mgr.Not(mgr.And(mgr.Var(0), mgr.Var(1)));
  EXPECT_EQ(mgr.Cofactor(g, 0, true), mgr.Not(mgr.Var(1)));
  EXPECT_EQ(mgr.Cofactor(g, 0, false), mgr.True());
}

TEST(FormulaTest, CountReachable) {
  FormulaManager mgr;
  NodeId shared = mgr.And(mgr.Var(0), mgr.Var(1));
  NodeId f = mgr.Or(shared, mgr.And(shared, mgr.Var(2)));
  // Nodes: or, and(0,1), and(0,1,2), x0, x1, x2 -> 6.
  EXPECT_EQ(mgr.CountReachable(f), 6u);
}

// The unique table, the var-set blocks and the child array grow in place
// while nodes are interned. Growth is representation only: the same
// structure interns to the same NodeId, a var-set span taken earlier still
// reads its set, and a cofactor recomputed afterwards is the same node.
TEST(FormulaTest, GrowthKeepsNodeIdsVarSetsAndCofactors) {
  FormulaManager mgr;
  NodeId a = mgr.Var(0), b = mgr.Var(1), c = mgr.Var(2);
  const NodeId early = mgr.Or(mgr.And(a, b), mgr.And(mgr.Not(b), c));
  std::span<const VarId> early_vars = mgr.VarsOf(early);
  ASSERT_EQ(std::vector<VarId>(early_vars.begin(), early_vars.end()),
            (std::vector<VarId>{0, 1, 2}));
  EXPECT_EQ(mgr.Cofactor(early, 1, true), a);

  // Terms x_v & x_{v+1} & !x_{v+2} and every prefix disjunction of them:
  // about 2,400 nodes, so the table doubles from 32 slots eight times.
  constexpr VarId kTerms = 600;
  auto term = [&mgr](VarId v) {
    return mgr.And({mgr.Var(v), mgr.Var(v + 1), mgr.Not(mgr.Var(v + 2))});
  };
  std::vector<NodeId> terms;
  for (VarId v = 0; v < kTerms; ++v) terms.push_back(term(v));
  auto prefix = [&](size_t n) {
    return mgr.Or(std::span<const NodeId>(terms.data(), n));
  };
  std::vector<NodeId> prefixes;
  std::vector<std::span<const VarId>> prefix_vars;
  std::vector<std::pair<NodeId, NodeId>> cofactors;  // before the growth
  for (size_t n = 2; n <= terms.size(); ++n) {
    prefixes.push_back(prefix(n));
    if (n == terms.size() / 2) {
      for (size_t i = 0; i < prefixes.size(); i += 37) {
        prefix_vars.push_back(mgr.VarsOf(prefixes[i]));
        cofactors.emplace_back(mgr.Cofactor(prefixes[i], 5, true),
                               mgr.Cofactor(prefixes[i], 5, false));
      }
    }
  }
  const size_t num_nodes = mgr.NumNodes();
  ASSERT_GT(num_nodes, 2'000u);

  // Re-interning every structure finds the node it made, creating none.
  EXPECT_EQ(mgr.Or(mgr.And(a, b), mgr.And(mgr.Not(b), c)), early);
  for (VarId v = 0; v < kTerms; ++v) ASSERT_EQ(term(v), terms[v]) << v;
  for (size_t n = 2; n <= terms.size(); ++n) {
    ASSERT_EQ(prefix(n), prefixes[n - 2]) << n;
  }
  EXPECT_EQ(mgr.NumNodes(), num_nodes);

  // Spans taken before the growth read the same sets as fresh ones.
  EXPECT_EQ(std::vector<VarId>(early_vars.begin(), early_vars.end()),
            (std::vector<VarId>{0, 1, 2}));
  for (size_t k = 0; k < prefix_vars.size(); ++k) {
    std::span<const VarId> now = mgr.VarsOf(prefixes[37 * k]);
    EXPECT_TRUE(std::equal(prefix_vars[k].begin(), prefix_vars[k].end(),
                           now.begin(), now.end()))
        << k;
    // Prefix 37k covers terms 0 .. 37k+1, over x_0 .. x_{37k+3}.
    EXPECT_EQ(now.size(), 37 * k + 4) << k;
  }

  // Recomputed without the memo, every cofactor is the node it was.
  mgr.ClearCofactorCache();
  for (size_t k = 0; k < cofactors.size(); ++k) {
    EXPECT_EQ(mgr.Cofactor(prefixes[37 * k], 5, true), cofactors[k].first);
    EXPECT_EQ(mgr.Cofactor(prefixes[37 * k], 5, false), cofactors[k].second);
  }
  EXPECT_EQ(mgr.Cofactor(early, 1, true), a);

  // A cofactor of the widest disjunction interns new nodes in the middle
  // of its recursion; it must still mean f with the variable fixed.
  Rng rng(5);
  const NodeId widest = prefixes.back();
  for (VarId v : {VarId{0}, VarId{301}, VarId{kTerms + 1}}) {
    for (bool value : {false, true}) {
      const NodeId cof = mgr.Cofactor(widest, v, value);
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<bool> assignment(kTerms + 2);
        for (size_t i = 0; i < assignment.size(); ++i) {
          assignment[i] = rng.NextDouble() < 0.7;
        }
        assignment[v] = value;
        EXPECT_EQ(mgr.Evaluate(cof, assignment),
                  mgr.Evaluate(widest, assignment));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lineage
// ---------------------------------------------------------------------------

TEST(LineageTest, Example21LineageStructure) {
  Database db = testing::BuildFigure1Database();
  FormulaManager mgr;
  auto q = ParseFo("forall x forall y (S(x,y) => R(x))");
  auto lineage = BuildLineage(*q, db, &mgr);
  ASSERT_TRUE(lineage.ok());
  // All 9 uncertain tuples appear.
  EXPECT_EQ(lineage->vars.size(), 9u);
  // Probability bookkeeping matches the database.
  for (size_t v = 0; v < lineage->vars.size(); ++v) {
    const Relation* rel = *db.Get(lineage->vars[v].relation);
    EXPECT_DOUBLE_EQ(lineage->probs[v], rel->prob(lineage->vars[v].row));
  }
}

TEST(LineageTest, LineageAgreesWithWorldSemantics) {
  // For random worlds, evaluating the lineage under the world's indicator
  // assignment equals evaluating the query on the world (appendix def).
  Database db = testing::BuildFigure1Database();
  FormulaManager mgr;
  std::vector<Value> domain = db.ActiveDomain();
  auto q = ParseFo("forall x forall y (S(x,y) => R(x))");
  auto lineage = BuildLineage(*q, db, &mgr);
  ASSERT_TRUE(lineage.ok());
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    Database world = db.SampleWorld(&rng);
    std::vector<bool> assignment(lineage->vars.size(), false);
    for (size_t v = 0; v < lineage->vars.size(); ++v) {
      const LineageVar& lv = lineage->vars[v];
      const Relation* original = *db.Get(lv.relation);
      assignment[v] = (*world.Get(lv.relation))->Contains(
          original->tuple(lv.row));
    }
    EXPECT_EQ(mgr.Evaluate(lineage->root, assignment),
              EvaluateOnWorld(*q, world, domain));
  }
}

TEST(LineageTest, MissingTuplesGroundToFalse) {
  Database db = testing::BuildFigure1Database();
  FormulaManager mgr;
  // R('zzz') is not a possible tuple: the existential lineage is just the
  // disjunction over stored R tuples.
  auto q = ParseFo("exists x R(x)");
  auto lineage = BuildLineage(*q, db, &mgr);
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage->vars.size(), 3u);
}

TEST(LineageTest, CertainTuplesFoldAway) {
  Database db;
  Relation r("R", Schema::Anonymous(1));
  ASSERT_TRUE(r.AddTuple({Value(1)}, 1.0).ok());
  ASSERT_TRUE(db.AddRelation(std::move(r)).ok());
  FormulaManager mgr;
  auto lineage = BuildLineage(*ParseFo("exists x R(x)"), db, &mgr);
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage->root, mgr.True());
  EXPECT_TRUE(lineage->vars.empty());
}

TEST(LineageTest, RejectsFreeVariablesAndUnknownRelations) {
  Database db = testing::BuildFigure1Database();
  FormulaManager mgr;
  EXPECT_FALSE(BuildLineage(*ParseFo("exists y S(x, y)"), db, &mgr).ok());
  EXPECT_FALSE(BuildLineage(*ParseFo("exists x Zap(x)"), db, &mgr).ok());
}

TEST(LineageTest, UcqLineageMatchesFoLineage) {
  Database db = testing::BuildFigure1Database();
  auto fo = ParseUcqShorthand("R(x), S(x,y)");
  auto ucq = FoToUcq(*fo);
  ASSERT_TRUE(ucq.ok());
  FormulaManager mgr1;
  auto join_lineage = BuildUcqLineage(*ucq, db, &mgr1);
  ASSERT_TRUE(join_lineage.ok());
  FormulaManager mgr2;
  auto fo_lineage = BuildLineage(*fo, db, &mgr2);
  ASSERT_TRUE(fo_lineage.ok());
  // Same number of satisfying assignments over the same variable origins:
  // check via truth tables keyed by (relation, row).
  // Both lineages involve R(a1),R(a2),S(a1,*),S(a2,*) tuples only.
  EXPECT_EQ(mgr1.VarsOf(join_lineage->root).size(),
            mgr2.VarsOf(fo_lineage->root).size());
}

TEST(LineageTest, EnumerateCqMatchesCountsJoins) {
  Database db = testing::BuildFigure1Database();
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y)"));
  size_t matches = 0;
  ASSERT_TRUE(EnumerateCqMatches(ucq->disjuncts()[0], db,
                                 [&](const CqMatch&) { ++matches; })
                  .ok());
  // R(a1) joins S(a1,b1),S(a1,b2); R(a2) joins S(a2,b3..b5): 5 matches.
  EXPECT_EQ(matches, 5u);
}

TEST(LineageTest, EnumerateHandlesConstantsAndRepeats) {
  Database db;
  Relation s("S", Schema::Anonymous(2));
  ASSERT_TRUE(s.AddTuple({Value(1), Value(1)}, 0.5).ok());
  ASSERT_TRUE(s.AddTuple({Value(1), Value(2)}, 0.5).ok());
  ASSERT_TRUE(s.AddTuple({Value(2), Value(2)}, 0.5).ok());
  ASSERT_TRUE(db.AddRelation(std::move(s)).ok());
  // S(x,x): diagonal only.
  ConjunctiveQuery diag({Atom("S", {Term::Var("x"), Term::Var("x")})});
  size_t matches = 0;
  ASSERT_TRUE(
      EnumerateCqMatches(diag, db, [&](const CqMatch&) { ++matches; }).ok());
  EXPECT_EQ(matches, 2u);
  // S(1, y): constant selection.
  ConjunctiveQuery sel({Atom("S", {Term::Const(Value(1)), Term::Var("y")})});
  matches = 0;
  ASSERT_TRUE(
      EnumerateCqMatches(sel, db, [&](const CqMatch&) { ++matches; }).ok());
  EXPECT_EQ(matches, 2u);
}

TEST(LineageTest, DnfTermsDeduplicateVars) {
  Database db;
  Relation s("S", Schema::Anonymous(2));
  ASSERT_TRUE(s.AddTuple({Value(1), Value(1)}, 0.5).ok());
  ASSERT_TRUE(db.AddRelation(std::move(s)).ok());
  // S(x,y) & S(y,x) matched by the symmetric tuple (1,1) twice -> one var.
  ConjunctiveQuery cq({Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("S", {Term::Var("y"), Term::Var("x")})});
  auto dnf = BuildUcqDnf(Ucq({cq}), db);
  ASSERT_TRUE(dnf.ok());
  ASSERT_EQ(dnf->terms.size(), 1u);
  EXPECT_EQ(dnf->terms[0].size(), 1u);
}

}  // namespace
}  // namespace pdb
