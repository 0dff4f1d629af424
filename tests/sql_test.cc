#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/pdb.h"
#include "core/session.h"
#include "sql/explain.h"
#include "sql/sql.h"
#include "test_common.h"

namespace pdb {
namespace {

// Customer(id, city), Orders(id, amount) with probabilities.
Database ShopDb() {
  Database db;
  Relation customer("Customer", Schema({{"id", ValueType::kInt},
                                        {"city", ValueType::kString}}));
  PDB_CHECK(customer.AddTuple({Value(1), Value("tacoma")}, 0.9).ok());
  PDB_CHECK(customer.AddTuple({Value(2), Value("spokane")}, 0.4).ok());
  PDB_CHECK(db.AddRelation(std::move(customer)).ok());
  Relation orders("Orders", Schema({{"id", ValueType::kInt},
                                    {"amount", ValueType::kInt}}));
  PDB_CHECK(orders.AddTuple({Value(1), Value(120)}, 0.5).ok());
  PDB_CHECK(orders.AddTuple({Value(2), Value(80)}, 0.25).ok());
  PDB_CHECK(db.AddRelation(std::move(orders)).ok());
  return db;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(SqlParseTest, BooleanSelect) {
  auto parsed = ParseSql(
      "SELECT PROB() FROM Customer c, Orders o WHERE c.id = o.id");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->boolean);
  ASSERT_EQ(parsed->from.size(), 2u);
  EXPECT_EQ(parsed->from[0].table, "Customer");
  EXPECT_EQ(parsed->from[0].alias, "c");
  ASSERT_EQ(parsed->where.size(), 1u);
}

TEST(SqlParseTest, ColumnSelectWithLiterals) {
  auto parsed = ParseSql(
      "select city from Customer where id = 1 and city = 'tacoma'");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->boolean);
  ASSERT_EQ(parsed->columns.size(), 1u);
  EXPECT_EQ(parsed->columns[0].column, "city");
  EXPECT_EQ(parsed->where.size(), 2u);
}

TEST(SqlParseTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseSql("select prob() from Customer").ok());
  EXPECT_TRUE(ParseSql("SELECT id FROM Customer AS c;").ok());
}

TEST(SqlParseTest, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM Customer").ok());
  EXPECT_FALSE(ParseSql("SELECT PROB() Customer").ok());
  EXPECT_FALSE(ParseSql("SELECT PROB() FROM Customer WHERE id =").ok());
  EXPECT_FALSE(ParseSql("SELECT PROB() FROM Customer WHERE id < 3").ok());
  EXPECT_FALSE(ParseSql("SELECT x FROM t WHERE a = 'unterminated").ok());
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

TEST(SqlCompileTest, JoinBecomesSharedVariable) {
  Database db = ShopDb();
  auto compiled = CompileSql(
      "SELECT PROB() FROM Customer c, Orders o WHERE c.id = o.id", db);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->boolean);
  ASSERT_EQ(compiled->cq.size(), 2u);
  // The id columns share one variable.
  EXPECT_EQ(compiled->cq.atoms()[0].args[0],
            compiled->cq.atoms()[1].args[0]);
  EXPECT_TRUE(compiled->cq.IsSelfJoinFree());
}

TEST(SqlCompileTest, LiteralsPinConstants) {
  Database db = ShopDb();
  auto compiled = CompileSql(
      "SELECT PROB() FROM Customer WHERE city = 'tacoma'", db);
  ASSERT_TRUE(compiled.ok());
  const Term& city = compiled->cq.atoms()[0].args[1];
  ASSERT_TRUE(city.is_constant());
  EXPECT_EQ(city.constant().AsString(), "tacoma");
}

TEST(SqlCompileTest, UnqualifiedColumnsAndAmbiguity) {
  Database db = ShopDb();
  // "city" is unambiguous; "id" appears in both tables.
  EXPECT_TRUE(CompileSql("SELECT city FROM Customer", db).ok());
  auto ambiguous =
      CompileSql("SELECT PROB() FROM Customer, Orders WHERE id = 1", db);
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kInvalidArgument);
  auto unknown = CompileSql("SELECT zzz FROM Customer", db);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  auto missing_table = CompileSql("SELECT PROB() FROM Nope", db);
  EXPECT_EQ(missing_table.status().code(), StatusCode::kNotFound);
}

TEST(SqlCompileTest, ContradictionIsRejected) {
  Database db = ShopDb();
  auto contradiction = CompileSql(
      "SELECT PROB() FROM Customer WHERE id = 1 AND id = 2", db);
  EXPECT_FALSE(contradiction.ok());
}

// ---------------------------------------------------------------------------
// End-to-end through ProbDatabase
// ---------------------------------------------------------------------------

TEST(SqlQueryTest, BooleanProbability) {
  ProbDatabase engine(ShopDb());
  auto p = engine.QuerySqlBoolean(
      "SELECT PROB() FROM Customer c, Orders o WHERE c.id = o.id");
  ASSERT_TRUE(p.ok());
  // P = 1 - (1 - .9*.5)(1 - .4*.25) = 1 - .55*.9 = 0.505.
  EXPECT_NEAR(p->probability, 0.505, 1e-12);
  EXPECT_TRUE(p->exact);
  // Selection by literal.
  auto tacoma = engine.QuerySqlBoolean(
      "SELECT PROB() FROM Customer WHERE city = 'tacoma'");
  EXPECT_NEAR(tacoma->probability, 0.9, 1e-12);
}

TEST(SqlQueryTest, AnswerRelation) {
  ProbDatabase engine(ShopDb());
  auto answers = engine.QuerySqlAnswers(
      "SELECT c.city FROM Customer c, Orders o WHERE c.id = o.id");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), 2u);
  EXPECT_NEAR(answers->ProbOf({Value("tacoma")}), 0.9 * 0.5, 1e-12);
  EXPECT_NEAR(answers->ProbOf({Value("spokane")}), 0.4 * 0.25, 1e-12);
}

TEST(SqlQueryTest, MismatchedEntryPointsAreRejected) {
  ProbDatabase engine(ShopDb());
  EXPECT_FALSE(engine.QuerySqlBoolean("SELECT city FROM Customer").ok());
  EXPECT_FALSE(
      engine.QuerySqlAnswers("SELECT PROB() FROM Customer").ok());
}

TEST(SqlParseTest, WithStderrClause) {
  auto parsed = ParseSql(
      "SELECT PROB() FROM Customer c, Orders o WHERE c.id = o.id "
      "WITH STDERR 0.005");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->target_stderr, 0.005);

  // Absent clause leaves the default.
  auto plain = ParseSql("SELECT PROB() FROM Customer");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->target_stderr, 0.0);

  // Integer bounds, scientific notation, and lowercase keywords all parse.
  EXPECT_DOUBLE_EQ(
      ParseSql("SELECT PROB() FROM Customer WITH STDERR 1")->target_stderr,
      1.0);
  EXPECT_DOUBLE_EQ(
      ParseSql("select prob() from Customer with stderr 2.5e-3")
          ->target_stderr,
      0.0025);
}

TEST(SqlParseTest, WithStderrErrors) {
  // Missing/garbled clause pieces.
  EXPECT_FALSE(ParseSql("SELECT PROB() FROM Customer WITH").ok());
  EXPECT_FALSE(ParseSql("SELECT PROB() FROM Customer WITH STDERR").ok());
  EXPECT_FALSE(
      ParseSql("SELECT PROB() FROM Customer WITH TIMEOUT 0.1").ok());
  // The target must be positive.
  EXPECT_FALSE(ParseSql("SELECT PROB() FROM Customer WITH STDERR 0").ok());
  EXPECT_FALSE(
      ParseSql("SELECT PROB() FROM Customer WITH STDERR 0.0").ok());
  // Floats stay confined to WITH STDERR: WHERE literals reject them...
  EXPECT_FALSE(
      ParseSql("SELECT PROB() FROM Customer WHERE id = 1.5").ok());
  // ...and qualified column refs still tokenize as ident '.' ident.
  EXPECT_TRUE(
      ParseSql("SELECT PROB() FROM Customer c WHERE c.id = 1").ok());
}

TEST(SqlCompileTest, WithStderrSurvivesCompilation) {
  Database db = ShopDb();
  auto compiled = CompileSql(
      "SELECT PROB() FROM Customer c, Orders o WHERE c.id = o.id "
      "WITH STDERR 0.01",
      db);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_DOUBLE_EQ(compiled->target_stderr, 0.01);
}

TEST(SqlQueryTest, SqlMatchesUcqPath) {
  ProbDatabase engine(ShopDb());
  auto via_sql = engine.QuerySqlBoolean(
      "SELECT PROB() FROM Customer c, Orders o WHERE c.id = o.id");
  auto via_ucq = engine.Query("Customer(x, c), Orders(x, a)");
  ASSERT_TRUE(via_sql.ok());
  ASSERT_TRUE(via_ucq.ok());
  EXPECT_NEAR(via_sql->probability, via_ucq->probability, 1e-12);
}

// ---------------------------------------------------------------------------
// EXPLAIN [ANALYZE]
// ---------------------------------------------------------------------------

TEST(ExplainPrefixTest, StripsExplainAndOptionalAnalyze) {
  bool analyze = true;
  std::string rest;
  ASSERT_TRUE(
      StripExplainPrefix("EXPLAIN SELECT PROB() FROM R", &analyze, &rest));
  EXPECT_FALSE(analyze);
  EXPECT_EQ(rest, "SELECT PROB() FROM R");

  ASSERT_TRUE(StripExplainPrefix("  explain analyze  select x from R",
                                 &analyze, &rest));
  EXPECT_TRUE(analyze);
  EXPECT_EQ(rest, "select x from R");

  // Not EXPLAIN: untouched, returns false.
  EXPECT_FALSE(StripExplainPrefix("SELECT PROB() FROM R", &analyze, &rest));
  // An identifier that merely begins with the keyword is not the keyword.
  EXPECT_FALSE(StripExplainPrefix("EXPLAINX SELECT 1", &analyze, &rest));
  // ANALYZE alone (no EXPLAIN) is not a prefix either.
  EXPECT_FALSE(StripExplainPrefix("ANALYZE SELECT 1", &analyze, &rest));
  // "EXPLAIN ANALYZER ..." keeps ANALYZER as part of the statement.
  ASSERT_TRUE(StripExplainPrefix("EXPLAIN ANALYZER bogus", &analyze, &rest));
  EXPECT_FALSE(analyze);
  EXPECT_EQ(rest, "ANALYZER bogus");
}

/// n-wide uniform bipartite database: R(x) 1..n, S(x,y) the full n x n
/// grid, T(y) 1..n. The independence assumption behind the cost model
/// holds exactly, so per-step estimates should track actuals.
Database UniformJoinDb(int n) {
  Database db;
  Relation r("R", Schema({{"x", ValueType::kInt}}));
  Relation s("S", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  Relation t("T", Schema({{"y", ValueType::kInt}}));
  for (int i = 1; i <= n; ++i) {
    PDB_CHECK(r.AddTuple({Value(int64_t{i})}, 0.5).ok());
    PDB_CHECK(t.AddTuple({Value(int64_t{i})}, 0.5).ok());
    for (int j = 1; j <= n; ++j) {
      PDB_CHECK(s.AddTuple({Value(int64_t{i}), Value(int64_t{j})}, 0.5).ok());
    }
  }
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

/// Planted correlation: S holds n pairs but every one of them has x = 1,
/// so dividing |S| by distinct(S.x) = 1 predicts n rows per upstream R
/// binding while all but x = 1 produce zero.
Database CorrelatedJoinDb(int n) {
  Database db;
  Relation r("R", Schema({{"x", ValueType::kInt}}));
  Relation s("S", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  Relation t("T", Schema({{"y", ValueType::kInt}}));
  for (int i = 1; i <= n; ++i) {
    PDB_CHECK(r.AddTuple({Value(int64_t{i})}, 0.5).ok());
    PDB_CHECK(t.AddTuple({Value(int64_t{i})}, 0.5).ok());
    PDB_CHECK(s.AddTuple({Value(int64_t{1}), Value(int64_t{i})}, 0.5).ok());
  }
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

const char* kJoinSql =
    "SELECT PROB() FROM R, S, T WHERE R.x = S.x AND S.y = T.y";

/// Cumulative estimated cardinality after step `s`: step estimates are
/// per upstream partial match, so the running product is the prediction
/// comparable to the executor's per-step entered-row counts.
double CumulativeEstimate(const JoinPlanProfile& plan, size_t s) {
  double cum = 1.0;
  for (size_t i = 0; i <= s && i < plan.steps.size(); ++i) {
    if (plan.steps[i].estimated_rows < 0) return -1.0;
    cum *= plan.steps[i].estimated_rows;
  }
  return cum;
}

TEST(ExplainTest, PlainExplainPredictsWithoutExecuting) {
  ProbDatabase pdb(UniformJoinDb(4));
  Session session(&pdb, {.num_threads = 1});
  auto explain = session.ExplainSql(kJoinSql, /*analyze=*/false);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->analyze);
  EXPECT_FALSE(explain->executed);
  EXPECT_TRUE(explain->method_predicted);
  // R(x), S(x,y), T(y) is the H0 non-hierarchical pattern: unsafe.
  EXPECT_FALSE(explain->safe);
  EXPECT_EQ(explain->method, "grounded-exact");
  ASSERT_EQ(explain->plans.size(), 1u);
  const JoinPlanProfile& plan = explain->plans[0];
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_FALSE(plan.executed);
  for (const JoinStepProfile& step : plan.steps) {
    EXPECT_GT(step.relation_rows, 0u);
    EXPECT_GE(step.estimated_rows, 0.0);
    EXPECT_EQ(step.actual_rows, 0u);
  }
  std::string text = explain->ToText();
  EXPECT_NE(text.find("routing: grounded-exact (predicted)"),
            std::string::npos);
  EXPECT_NE(text.find("(not executed)"), std::string::npos);
  std::string json = explain->ToJson();
  EXPECT_NE(json.find("\"executed\":false"), std::string::npos);
  EXPECT_EQ(json.find("\"probability\""), std::string::npos);
}

TEST(ExplainTest, SafeQueryRoutesLifted) {
  ProbDatabase pdb(UniformJoinDb(3));
  Session session(&pdb, {.num_threads = 1});
  auto explain =
      session.ExplainSql("SELECT PROB() FROM R, S WHERE R.x = S.x", false);
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->safe);
  EXPECT_EQ(explain->method, "lifted");
  EXPECT_NE(explain->safety.find("safe"), std::string::npos);
}

TEST(ExplainTest, AnalyzeExecutesAndAgreesWithExecReport) {
  ProbDatabase pdb(UniformJoinDb(4));
  Session session(&pdb, {.num_threads = 1});

  auto direct = session.QuerySqlBoolean(kJoinSql);
  ASSERT_TRUE(direct.ok());

  auto explain = session.ExplainSql(kJoinSql, /*analyze=*/true);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_TRUE(explain->analyze);
  EXPECT_TRUE(explain->executed);
  EXPECT_FALSE(explain->method_predicted);
  EXPECT_NEAR(explain->probability, direct->probability, 1e-12);
  EXPECT_TRUE(explain->exact);

  // Differential check against the engine's own counters: the executed
  // plan's match count is the final step's entered-row count and equals
  // what the ExecReport saw as lineage matches.
  ASSERT_EQ(explain->plans.size(), 1u);
  const JoinPlanProfile& plan = explain->plans[0];
  ASSERT_TRUE(plan.executed);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.matches, plan.steps.back().actual_rows);
  EXPECT_EQ(plan.matches, explain->report.lineage_matches);
  EXPECT_GT(explain->report.lineage_nodes, 0u);

  // Phase timings made it into the payload.
  EXPECT_GT(explain->trace.total_ns, 0u);
  EXPECT_FALSE(explain->trace.spans.empty());
  std::string text = explain->ToText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("probability:"), std::string::npos);
  EXPECT_NE(text.find("trace: total"), std::string::npos);
}

// The same statement under a one-decision DPLL budget falls back to plan
// bounds and Karp-Luby, which read the lineage DPLL was given: one
// executed plan, whose matches are every match the report counted.
TEST(ExplainTest, AnalyzeSampledStatementGroundsOnce) {
  ProbDatabase pdb(UniformJoinDb(4));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions options;
  options.max_dpll_decisions = 1;
  auto explain = session.ExplainSql(kJoinSql, /*analyze=*/true, options);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->method, "monte-carlo");
  EXPECT_FALSE(explain->exact);
  ASSERT_EQ(explain->plans.size(), 1u);
  const JoinPlanProfile& plan = explain->plans[0];
  ASSERT_TRUE(plan.executed);
  EXPECT_EQ(plan.matches, 16u);  // one per S row: every R and T is stored
  EXPECT_EQ(plan.matches, explain->report.lineage_matches);
  // The node counter counts the formula's nodes alone, so it reads the
  // same whether DPLL finished or the statement fell back to sampling.
  auto exact = session.ExplainSql(kJoinSql, /*analyze=*/true);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_TRUE(exact->exact);
  EXPECT_GT(exact->report.lineage_nodes, 0u);
  EXPECT_EQ(explain->report.lineage_nodes, exact->report.lineage_nodes);
}

TEST(ExplainTest, AnalyzeBypassesResultCache) {
  ProbDatabase pdb(UniformJoinDb(4));
  Session session(&pdb, {.num_threads = 1});
  // Warm the result cache, then confirm ANALYZE still executes the join
  // (a cache hit would leave no executed plan to report).
  ASSERT_TRUE(session.QuerySqlBoolean(kJoinSql).ok());
  ASSERT_TRUE(session.QuerySqlBoolean(kJoinSql).ok());
  EXPECT_GE(session.result_cache_hits(), 1u);
  auto explain = session.ExplainSql(kJoinSql, /*analyze=*/true);
  ASSERT_TRUE(explain.ok());
  ASSERT_EQ(explain->plans.size(), 1u);
  EXPECT_TRUE(explain->plans[0].executed);
  EXPECT_GT(explain->plans[0].matches, 0u);
}

TEST(ExplainTest, AnalyzeAnswersQueryReportsTuples) {
  ProbDatabase pdb(UniformJoinDb(3));
  Session session(&pdb, {.num_threads = 1});
  auto explain = session.ExplainSql(
      "SELECT R.x FROM R, S WHERE R.x = S.x", /*analyze=*/true);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->boolean);
  EXPECT_TRUE(explain->executed);
  EXPECT_EQ(explain->answer_tuples, 3u);
  std::string text = explain->ToText();
  EXPECT_NE(text.find("answers: 3 tuples"), std::string::npos);
}

TEST(ExplainTest, UniformDataEstimatesTrackActuals) {
  ProbDatabase pdb(UniformJoinDb(6));
  Session session(&pdb, {.num_threads = 1});
  auto explain = session.ExplainSql(kJoinSql, /*analyze=*/true);
  ASSERT_TRUE(explain.ok());
  ASSERT_EQ(explain->plans.size(), 1u);
  const JoinPlanProfile& plan = explain->plans[0];
  ASSERT_TRUE(plan.executed);
  // Independence holds exactly here, so every cumulative estimate must be
  // within a constant factor of the observed per-step row count.
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    double estimate = CumulativeEstimate(plan, s);
    double actual = static_cast<double>(plan.steps[s].actual_rows);
    ASSERT_GE(estimate, 0.0);
    ASSERT_GT(actual, 0.0);
    EXPECT_LE(estimate / actual, 2.0) << "step " << s;
    EXPECT_GE(estimate / actual, 0.5) << "step " << s;
  }
}

TEST(ExplainTest, CorrelatedDataDivergenceIsReportedNotHidden) {
  const int n = 20;
  ProbDatabase pdb(CorrelatedJoinDb(n));
  Session session(&pdb, {.num_threads = 1});
  auto explain = session.ExplainSql(kJoinSql, /*analyze=*/true);
  ASSERT_TRUE(explain.ok());
  ASSERT_EQ(explain->plans.size(), 1u);
  const JoinPlanProfile& plan = explain->plans[0];
  ASSERT_TRUE(plan.executed);
  // The skewed S column breaks the independence assumption: somewhere the
  // cumulative estimate and the actual count diverge by at least 5x...
  double worst = 1.0;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    double estimate = CumulativeEstimate(plan, s);
    double actual =
        std::max(1.0, static_cast<double>(plan.steps[s].actual_rows));
    if (estimate < 0) continue;
    worst = std::max(worst,
                     std::max(estimate / actual, actual / estimate));
  }
  EXPECT_GE(worst, 5.0);
  // ...and both numbers appear side by side in the rendering rather than
  // the estimate being replaced by the observed value.
  std::string json = explain->ToJson();
  EXPECT_NE(json.find("\"estimated_rows\":"), std::string::npos);
  EXPECT_NE(json.find("\"actual_rows\":"), std::string::npos);
  bool some_step_diverges = false;
  for (const JoinStepProfile& step : plan.steps) {
    if (step.estimated_rows >= 0 &&
        std::abs(step.estimated_rows -
                 static_cast<double>(step.actual_rows)) > 1e-9) {
      some_step_diverges = true;
    }
  }
  EXPECT_TRUE(some_step_diverges);
}

TEST(ExplainTest, RejectsUnparseableSql) {
  ProbDatabase pdb(UniformJoinDb(2));
  Session session(&pdb, {.num_threads = 1});
  EXPECT_FALSE(session.ExplainSql("SELECT FROM nothing", false).ok());
  EXPECT_FALSE(session.ExplainSql("not sql at all", true).ok());
}

}  // namespace
}  // namespace pdb
