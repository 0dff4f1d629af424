#include <gtest/gtest.h>

#include "logic/analysis.h"
#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/fo.h"
#include "logic/parser.h"
#include "test_common.h"

namespace pdb {
namespace {

Result<FoPtr> Parse(const std::string& text) { return ParseFo(text); }

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, ParsesExample21) {
  auto q = Parse("forall x forall y (S(x,y) => R(x))");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->kind(), FoKind::kForall);
  EXPECT_EQ((*q)->ToString(), "forall x forall y (!S(x, y) | R(x))");
}

TEST(ParserTest, ParsesQuantifierVariableLists) {
  // A variable list before a parenthesized body needs the dot separator.
  auto q = Parse("forall x y . (S(x,y) => R(x))");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->ToString(), "forall x forall y (!S(x, y) | R(x))");
}

TEST(ParserTest, QuantifierDirectlyOverAtom) {
  auto q = Parse("exists x R(x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->ToString(), "exists x R(x)");
}

TEST(ParserTest, ParsesConstants) {
  auto q = Parse("exists y S('a1', y) & R(7)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->FreeVariables().size(), 0u);
}

TEST(ParserTest, PrecedenceAndOverOr) {
  auto q = Parse("R(1) | S(1,1) & T(1)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->kind(), FoKind::kOr);
}

TEST(ParserTest, Implication) {
  auto q = Parse("R(1) => S(1,1) => T(1)");  // right-associative
  ASSERT_TRUE(q.ok());
  // a => (b => c) == !a | (!b | c), flattened by Or.
  EXPECT_EQ((*q)->ToString(), "(!R(1) | !S(1, 1) | T(1))");
}

TEST(ParserTest, Iff) {
  auto q = Parse("R(1) <=> T(1)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->kind(), FoKind::kOr);  // (a&b) | (!a&!b)
}

TEST(ParserTest, WordConnectives) {
  auto q = Parse("not R(1) and (S(1,2) or T(2))");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->kind(), FoKind::kAnd);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("R(").ok());
  EXPECT_FALSE(Parse("forall (R(x))").ok());
  EXPECT_FALSE(Parse("R(x) &").ok());
  EXPECT_FALSE(Parse("R(x) R(y)").ok());
  EXPECT_FALSE(Parse("R('unterminated)").ok());
  EXPECT_FALSE(Parse("R(x) = S(x)").ok());
}

TEST(ParserTest, UcqShorthand) {
  auto q = ParseUcqShorthand("R(x), S(x,y) ; T(u), S(u,v)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE((*q)->FreeVariables().empty());
  auto ucq = FoToUcq(*q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 2u);
  EXPECT_EQ(ucq->disjuncts()[0].size(), 2u);
}

// ---------------------------------------------------------------------------
// Transformations
// ---------------------------------------------------------------------------

TEST(FoTest, NnfPushesNegation) {
  auto q = Parse("!(exists x (R(x) & !T(x)))");
  ASSERT_TRUE(q.ok());
  FoPtr nnf = ToNnf(*q);
  EXPECT_EQ(nnf->ToString(), "forall x (!R(x) | T(x))");
}

TEST(FoTest, DoubleNegationCollapses) {
  auto q = Parse("!!R(1)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->ToString(), "R(1)");
}

TEST(FoTest, DualSwapsEverything) {
  auto q = Parse("forall x forall y (R(x) | S(x,y) | T(y))");
  auto dual = DualQuery(*q);
  ASSERT_TRUE(dual.ok());
  EXPECT_EQ((*dual)->ToString(),
            "exists x exists y (R(x) & S(x, y) & T(y))");
  // Dual of the dual is the original.
  auto back = DualQuery(*dual);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(StructurallyEqual(*back, *q));
}

TEST(FoTest, DualRejectsNegation) {
  auto q = Parse("!R(1)");
  EXPECT_FALSE(DualQuery(*q).ok());
}

TEST(FoTest, SubstituteAndRename) {
  auto q = Parse("exists y S(x, y)");
  FoPtr grounded = Substitute(*q, "x", Value("a1"));
  EXPECT_TRUE(grounded->FreeVariables().empty());
  FoPtr renamed = RenameVariable(*q, "x", "z");
  EXPECT_EQ(renamed->FreeVariables(), std::set<std::string>{"z"});
  // The bound variable is untouched (and shadowing is respected).
  FoPtr shadow = Substitute(*q, "y", Value("b"));
  EXPECT_TRUE(StructurallyEqual(shadow, *q));
}

TEST(FoTest, EvaluateOnWorld) {
  Database world = testing::BuildFigure1Database();  // probs ignored
  std::vector<Value> domain = world.ActiveDomain();
  auto q1 = Parse("exists x (R(x))");
  EXPECT_TRUE(EvaluateOnWorld(*q1, world, domain));
  auto q2 = Parse("forall x forall y (S(x,y) => R(x))");
  // S(a4, b6) present but R(a4) absent: constraint fails.
  EXPECT_FALSE(EvaluateOnWorld(*q2, world, domain));
  auto q3 = Parse("exists x exists y (R(x) & S(x,y))");
  EXPECT_TRUE(EvaluateOnWorld(*q3, world, domain));
}

TEST(FoTest, EmptyDomainQuantifierSemantics) {
  Database empty_world;
  PDB_CHECK(empty_world.CreateRelation("R", Schema::Anonymous(1)).ok());
  std::vector<Value> empty_domain;
  // Vacuous truth / falsity over the empty domain.
  EXPECT_TRUE(EvaluateOnWorld(*Parse("forall x R(x)"), empty_world,
                              empty_domain));
  EXPECT_FALSE(EvaluateOnWorld(*Parse("exists x R(x)"), empty_world,
                               empty_domain));
}

TEST(FoTest, NestedShadowingInStandardizeApart) {
  // exists x (R(x) & exists x T(x)): the inner x shadows the outer one.
  auto q = Parse("exists x (R(x) & exists x T(x))");
  ASSERT_TRUE(q.ok());
  FoPtr apart = StandardizeApart(*q);
  auto ucq = FoToUcq(*q);
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 1u);
  // Two distinct variables: R's argument and T's argument must differ.
  const auto& atoms = ucq->disjuncts()[0].atoms();
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_NE(atoms[0].args[0], atoms[1].args[0]);
}

TEST(FoTest, IffSemanticsOnWorlds) {
  Database world;
  Relation r("R", Schema::Anonymous(1));
  Relation t("T", Schema::Anonymous(1));
  PDB_CHECK(r.AddTuple({Value(1)}, 1.0).ok());
  PDB_CHECK(t.AddTuple({Value(2)}, 1.0).ok());
  PDB_CHECK(world.AddRelation(std::move(r)).ok());
  PDB_CHECK(world.AddRelation(std::move(t)).ok());
  std::vector<Value> domain = {Value(1), Value(2)};
  // R(1) <=> T(2): both true.
  EXPECT_TRUE(EvaluateOnWorld(*Parse("R(1) <=> T(2)"), world, domain));
  // R(2) <=> T(1): both false.
  EXPECT_TRUE(EvaluateOnWorld(*Parse("R(2) <=> T(1)"), world, domain));
  // R(1) <=> T(1): true vs false.
  EXPECT_FALSE(EvaluateOnWorld(*Parse("R(1) <=> T(1)"), world, domain));
}

// ---------------------------------------------------------------------------
// UCQ conversion
// ---------------------------------------------------------------------------

TEST(CqTest, FoToUcqDistributes) {
  auto q = Parse("exists x ((R(x) | T(x)) & exists y S(x,y))");
  auto ucq = FoToUcq(*q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 2u);  // R&S | T&S
  for (const auto& cq : ucq->disjuncts()) EXPECT_EQ(cq.size(), 2u);
}

TEST(CqTest, FoToUcqStandardizesApart) {
  auto q = Parse("(exists x R(x)) & (exists x T(x))");
  auto ucq = FoToUcq(*q);
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 1u);
  // The two x's must not be unified.
  EXPECT_EQ(ucq->disjuncts()[0].Variables().size(), 2u);
}

TEST(CqTest, FoToUcqRejectsForallAndNegation) {
  EXPECT_FALSE(FoToUcq(*Parse("forall x R(x)")).ok());
  EXPECT_FALSE(FoToUcq(*Parse("exists x !R(x)")).ok());
  EXPECT_FALSE(FoToUcq(*Parse("R(x)")).ok());  // free variable
}

TEST(CqTest, RenameAndSubstitute) {
  ConjunctiveQuery cq(
      {Atom("R", {Term::Var("x")}), Atom("S", {Term::Var("x"), Term::Var("y")})});
  ConjunctiveQuery renamed = cq.RenameVariables("_1");
  EXPECT_EQ(renamed.Variables(), (std::set<std::string>{"x_1", "y_1"}));
  ConjunctiveQuery grounded = cq.Substitute("x", Value(5));
  EXPECT_EQ(grounded.Variables(), std::set<std::string>{"y"});
}

// ---------------------------------------------------------------------------
// Analysis: hierarchy, roots, components, separators
// ---------------------------------------------------------------------------

ConjunctiveQuery CqOf(const std::string& shorthand) {
  auto fo = ParseUcqShorthand(shorthand);
  PDB_CHECK(fo.ok());
  auto ucq = FoToUcq(*fo);
  PDB_CHECK(ucq.ok());
  PDB_CHECK(ucq->size() == 1);
  return ucq->disjuncts()[0];
}

Ucq UcqOf(const std::string& shorthand) {
  auto fo = ParseUcqShorthand(shorthand);
  PDB_CHECK(fo.ok());
  auto ucq = FoToUcq(*fo);
  PDB_CHECK(ucq.ok());
  return *ucq;
}

TEST(AnalysisTest, HierarchicalExamples) {
  EXPECT_TRUE(IsHierarchical(CqOf("R(x), S(x,y)")));
  EXPECT_FALSE(IsHierarchical(CqOf("R(x), S(x,y), T(y)")));  // H0's CQ
  EXPECT_TRUE(IsHierarchical(CqOf("R(x), S(x,y), U(x,y)")));
  EXPECT_TRUE(IsHierarchical(CqOf("R(x), T(y)")));  // disjoint at() sets
  // Q_J is hierarchical per Definition 4.2 (x,y vs u,v are disjoint).
  EXPECT_TRUE(IsHierarchical(CqOf("R(x), S(x,y), T(u), S2(u,v)")));
}

TEST(AnalysisTest, RootVariables) {
  // Built directly so variable names are stable (FoToUcq renames apart).
  Term x = Term::Var("x"), y = Term::Var("y");
  ConjunctiveQuery rs({Atom("R", {x}), Atom("S", {x, y})});
  EXPECT_EQ(RootVariables(rs), std::set<std::string>{"x"});
  ConjunctiveQuery h0({Atom("R", {x}), Atom("S", {x, y}), Atom("T", {y})});
  EXPECT_TRUE(RootVariables(h0).empty());
  ConjunctiveQuery s_only({Atom("S", {x, y})});
  EXPECT_EQ(RootVariables(s_only), (std::set<std::string>{"x", "y"}));
}

TEST(AnalysisTest, ConnectedComponents) {
  auto components = VariableConnectedComponents(CqOf("R(x), S(x,y), T(u)"));
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size(), 2u);
  EXPECT_EQ(components[1].size(), 1u);
  // Ground atoms are singletons.
  ConjunctiveQuery with_ground({Atom("R", {Term::Const(Value(1))}),
                                Atom("S", {Term::Var("x"), Term::Var("y")})});
  EXPECT_EQ(VariableConnectedComponents(with_ground).size(), 2u);
}

TEST(AnalysisTest, GroupBySharedSymbols) {
  std::vector<std::set<std::string>> sets = {
      {"R", "S"}, {"T"}, {"S", "U"}, {"V"}};
  auto groups = GroupBySharedSymbols(sets);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(groups[1], (std::vector<size_t>{1}));
  EXPECT_EQ(groups[2], (std::vector<size_t>{3}));
}

TEST(AnalysisTest, SeparatorSimple) {
  Term x = Term::Var("x"), y = Term::Var("y");
  Ucq ucq({ConjunctiveQuery({Atom("R", {x}), Atom("S", {x, y})})});
  auto sep = FindSeparator(ucq);
  ASSERT_TRUE(sep.has_value());
  EXPECT_EQ((*sep)[0], "x");
}

TEST(AnalysisTest, SeparatorAcrossDisjuncts) {
  // Dual-of-Q_J style union: roots x and u, S-position 0 in both.
  Term x = Term::Var("x"), y = Term::Var("y");
  Term u = Term::Var("u"), v = Term::Var("v");
  Ucq ucq({ConjunctiveQuery({Atom("R", {x}), Atom("S", {x, y})}),
           ConjunctiveQuery({Atom("T", {u}), Atom("S", {u, v})})});
  auto sep = FindSeparator(ucq);
  ASSERT_TRUE(sep.has_value());
  EXPECT_EQ((*sep)[0], "x");
  EXPECT_EQ((*sep)[1], "u");
}

TEST(AnalysisTest, NoSeparatorForH0Union) {
  // H0-hard union: S carries its root at position 0 in one disjunct and
  // position 1 in the other.
  EXPECT_FALSE(FindSeparator(UcqOf("R(x), S(x,y) ; S(x,y), T(y)")).has_value());
}

TEST(AnalysisTest, NoSeparatorWithNonRootAtom) {
  EXPECT_FALSE(FindSeparator(UcqOf("R(x), S(x,y), T(y)")).has_value());
}

TEST(AnalysisTest, SeparatorWithSelfJoin) {
  // S(x,y) & S(x,z): x is a separator even with the self-join.
  Term x = Term::Var("x"), y = Term::Var("y"), z = Term::Var("z");
  Ucq with_sep({ConjunctiveQuery({Atom("S", {x, y}), Atom("S", {x, z})})});
  auto sep = FindSeparator(with_sep);
  ASSERT_TRUE(sep.has_value());
  EXPECT_EQ((*sep)[0], "x");
  // S(x,y) & S(y,x): no consistent position.
  Ucq no_sep({ConjunctiveQuery({Atom("S", {x, y}), Atom("S", {y, x})})});
  EXPECT_FALSE(FindSeparator(no_sep).has_value());
}

// ---------------------------------------------------------------------------
// Unateness and rewriting
// ---------------------------------------------------------------------------

TEST(AnalysisTest, Polarities) {
  auto q = Parse("forall x ((R(x) => S(x)) & (R(x) => T(x)))");
  auto pol = PredicatePolarities(ToNnf(*q));
  EXPECT_TRUE(pol["R"].negative);
  EXPECT_FALSE(pol["R"].positive);
  EXPECT_TRUE(pol["S"].positive);
  EXPECT_TRUE(IsUnate(*q));
  auto non_unate = Parse("forall x ((R(x) => S(x)) & (S(x) => T(x)))");
  EXPECT_FALSE(IsUnate(*non_unate));
}

TEST(AnalysisTest, ComplementRelation) {
  Database db = testing::BuildFigure1Database();
  std::vector<Value> domain = db.ActiveDomain();
  auto complement = ComplementRelation(**db.Get("R"), domain, 1000);
  ASSERT_TRUE(complement.ok());
  EXPECT_EQ(complement->name(), "R__c");
  EXPECT_EQ(complement->size(), 10u);  // full active domain
  EXPECT_DOUBLE_EQ(complement->ProbOf({Value("a1")}), 1.0 - 0.3);
  EXPECT_DOUBLE_EQ(complement->ProbOf({Value("a4")}), 1.0);  // not in R
  // Guard fires when the complement is too large.
  EXPECT_EQ(ComplementRelation(**db.Get("S"), domain, 10).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(AnalysisTest, RewriteUnateUniversal) {
  Database db = testing::BuildFigure1Database();
  auto q = Parse("forall x forall y (S(x,y) => R(x))");
  const uint64_t copies_before = Relation::CopyCount();
  auto rewrite = RewriteUnateForUcq(*q, db);
  ASSERT_TRUE(rewrite.ok());
  EXPECT_TRUE(rewrite->complemented);
  ASSERT_EQ(rewrite->ucq.size(), 1u);
  // Negation of the constraint: exists x y (S(x,y) & !R(x)).
  EXPECT_EQ(rewrite->ucq.disjuncts()[0].Predicates(),
            (std::set<std::string>{"R__c", "S"}));
  // The complement goes into the rewrite's database only, and the base
  // relations are the input's own objects, not copies.
  EXPECT_TRUE(rewrite->database.HasRelation("R__c"));
  EXPECT_FALSE(db.HasRelation("R__c"));
  EXPECT_EQ(*rewrite->database.Get("R"), *db.Get("R"));
  EXPECT_EQ(*rewrite->database.Get("S"), *db.Get("S"));
  EXPECT_EQ(Relation::CopyCount(), copies_before);
}

TEST(AnalysisTest, RewriteRejectsMixedAndNonUnate) {
  Database db = testing::BuildFigure1Database();
  EXPECT_EQ(RewriteUnateForUcq(*Parse("forall x exists y S(x,y)"), db)
                .status()
                .code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(
      RewriteUnateForUcq(
          *Parse("forall x ((R(x) => S(x,x)) & (S(x,x) => R(x)))"), db)
          .status()
          .code(),
      StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Containment / canonicalization
// ---------------------------------------------------------------------------

TEST(ContainmentTest, HomomorphismBasics) {
  // R(x),S(x,y) maps into R(a),S(a,b) style queries and vice versa.
  ConjunctiveQuery general = CqOf("S(x,y)");
  ConjunctiveQuery specific(
      {Atom("S", {Term::Var("u"), Term::Var("u")})});  // S(u,u)
  EXPECT_TRUE(HasHomomorphism(general, specific));   // x,y -> u,u
  EXPECT_FALSE(HasHomomorphism(specific, general));  // u -> x=y impossible
}

TEST(ContainmentTest, ImplicationDirection) {
  ConjunctiveQuery strong = CqOf("R(x), S(x,y)");
  ConjunctiveQuery weak = CqOf("S(x,y)");
  EXPECT_TRUE(CqImplies(strong, weak));
  EXPECT_FALSE(CqImplies(weak, strong));
}

TEST(ContainmentTest, EquivalenceUpToRenamingAndRedundancy) {
  ConjunctiveQuery a = CqOf("S(x,y)");
  ConjunctiveQuery b = CqOf("S(u,v), S(u,w)");  // w redundant copy
  EXPECT_TRUE(CqEquivalent(a, b));
}

TEST(ContainmentTest, MinimizeRemovesRedundantAtoms) {
  ConjunctiveQuery q = CqOf("S(u,v), S(u,w)");
  ConjunctiveQuery core = MinimizeCq(q);
  EXPECT_EQ(core.size(), 1u);
  // A non-redundant self-join stays.
  ConjunctiveQuery path = CqOf("S(x,y), S(y,z)");
  EXPECT_EQ(MinimizeCq(path).size(), 2u);
}

TEST(ContainmentTest, CanonicalStringIdentifiesEquivalents) {
  EXPECT_EQ(CanonicalCqString(CqOf("R(a), S(a,b)")),
            CanonicalCqString(CqOf("R(u), S(u,w)")));
  EXPECT_EQ(CanonicalCqString(CqOf("S(x,y)")),
            CanonicalCqString(CqOf("S(u,v), S(u,w)")));
  EXPECT_NE(CanonicalCqString(CqOf("S(x,y), S(y,z)")),
            CanonicalCqString(CqOf("S(x,y)")));
}

TEST(ContainmentTest, CanonicalStringWithConstants) {
  ConjunctiveQuery a({Atom("R", {Term::Const(Value(1)), Term::Var("x")})});
  ConjunctiveQuery b({Atom("R", {Term::Const(Value(1)), Term::Var("z")})});
  ConjunctiveQuery c({Atom("R", {Term::Const(Value(2)), Term::Var("z")})});
  EXPECT_EQ(CanonicalCqString(a), CanonicalCqString(b));
  EXPECT_NE(CanonicalCqString(a), CanonicalCqString(c));
}

}  // namespace
}  // namespace pdb
