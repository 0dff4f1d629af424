/// \file lineage_test.cc
/// \brief The compiled CQ grounding engine: differential equivalence with
/// the reference matcher (all join orders, all atom permutations) and the
/// session index cache under concurrency.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "boolean/lineage.h"
#include "core/session.h"
#include "exec/context.h"
#include "storage/columnar.h"
#include "storage/index_cache.h"
#include "test_common.h"
#include "util/random.h"
#include "wmc/dpll.h"

namespace pdb {
namespace {

using pdb::testing::AddRandomRelation;
using pdb::testing::RandomCq;
using pdb::testing::RandomTidOptions;
using pdb::testing::RandomVocabularyDb;

/// Flattened match list: (relation, row) per atom, in emission order.
using MatchList = std::vector<std::vector<std::pair<std::string, size_t>>>;

MatchList Collect(const ConjunctiveQuery& cq, const Database& db,
                  const GroundingOptions& options) {
  MatchList out;
  Status st = EnumerateCqMatches(
      cq, db,
      [&](const CqMatch& match) {
        std::vector<std::pair<std::string, size_t>> rows;
        for (const LineageVar& lv : match.atom_rows) {
          rows.emplace_back(lv.relation, lv.row);
        }
        out.push_back(std::move(rows));
      },
      options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

MatchList CollectReference(const ConjunctiveQuery& cq, const Database& db) {
  MatchList out;
  Status st = EnumerateCqMatchesReference(cq, db, [&](const CqMatch& match) {
    std::vector<std::pair<std::string, size_t>> rows;
    for (const LineageVar& lv : match.atom_rows) {
      rows.emplace_back(lv.relation, lv.row);
    }
    out.push_back(std::move(rows));
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

// 200 random (database, CQ) cases: the compiled engine must reproduce the
// reference matcher's match list exactly — same matches, same order — under
// both join-order policies.
TEST(CompiledGrounding, MatchesReferenceOnRandomCases) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 7919 + 17);
    Database db = RandomVocabularyDb(&rng);
    ConjunctiveQuery cq = RandomCq(&rng);
    MatchList expected = CollectReference(cq, db);
    GroundingOptions cost_based;
    cost_based.order = AtomOrderPolicy::kCostBased;
    GroundingOptions syntactic;
    syntactic.order = AtomOrderPolicy::kSyntactic;
    EXPECT_EQ(Collect(cq, db, cost_based), expected)
        << "seed " << seed << " cq " << cq.ToString();
    EXPECT_EQ(Collect(cq, db, syntactic), expected)
        << "seed " << seed << " cq " << cq.ToString();
  }
}

// Every permutation of a sample query's atoms agrees with the reference on
// the permuted query — the canonical match order is a property of the atom
// list as written, whatever order the engine joins in.
TEST(CompiledGrounding, AllAtomPermutationsMatchReference) {
  Rng rng(42);
  Database db = RandomVocabularyDb(&rng);
  std::vector<Atom> atoms = {
      Atom("R", {Term::Var("x")}),
      Atom("S", {Term::Var("x"), Term::Var("y")}),
      Atom("U", {Term::Var("y"), Term::Var("z")}),
      Atom("T", {Term::Var("z")}),
  };
  std::vector<size_t> perm = {0, 1, 2, 3};
  do {
    std::vector<Atom> permuted;
    for (size_t i : perm) permuted.push_back(atoms[i]);
    ConjunctiveQuery cq(permuted);
    EXPECT_EQ(Collect(cq, db, GroundingOptions{}), CollectReference(cq, db))
        << cq.ToString();
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(CompiledGrounding, EmptyCqYieldsOneEmptyMatch) {
  Rng rng(1);
  Database db = RandomVocabularyDb(&rng);
  ConjunctiveQuery cq;
  MatchList matches = Collect(cq, db, GroundingOptions{});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(matches[0].empty());
  EXPECT_EQ(matches, CollectReference(cq, db));
}

TEST(CompiledGrounding, ReportsMissingRelationAndArityMismatch) {
  Rng rng(2);
  Database db = RandomVocabularyDb(&rng);
  ConjunctiveQuery missing({Atom("Nope", {Term::Var("x")})});
  EXPECT_FALSE(
      EnumerateCqMatches(missing, db, [](const CqMatch&) {}).ok());
  ConjunctiveQuery arity({Atom("S", {Term::Var("x")})});
  Status st = EnumerateCqMatches(arity, db, [](const CqMatch&) {});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("arity mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// One grounding: DPLL's formula is built from the DNF lineage
// ---------------------------------------------------------------------------

/// A UCQ lineage built straight from the reference matcher's matches, with
/// no DNF in between: one `And` per match (certain tuples skipped) and one
/// `Or` per disjunct, interned into `mgr` in match order, and variables
/// numbered in first-use order over the matches' atoms.
Lineage ReferenceUcqLineage(const Ucq& ucq, const Database& db,
                            FormulaManager* mgr) {
  Lineage out;
  std::map<std::pair<std::string, size_t>, VarId> ids;
  std::vector<NodeId> disjunct_nodes;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    std::vector<NodeId> term_nodes;
    Status st = EnumerateCqMatchesReference(cq, db, [&](const CqMatch& m) {
      std::vector<NodeId> lits;
      for (const LineageVar& lv : m.atom_rows) {
        const double p = (*db.Get(lv.relation))->prob(lv.row);
        if (p == 1.0) continue;
        auto [it, inserted] = ids.emplace(std::make_pair(lv.relation, lv.row),
                                          static_cast<VarId>(out.vars.size()));
        if (inserted) {
          out.vars.push_back(lv);
          out.probs.push_back(p);
        }
        lits.push_back(mgr->Var(it->second));
      }
      term_nodes.push_back(mgr->And(std::move(lits)));
    });
    PDB_CHECK(st.ok());
    disjunct_nodes.push_back(mgr->Or(std::move(term_nodes)));
  }
  out.root = mgr->Or(std::move(disjunct_nodes));
  return out;
}

std::vector<std::pair<std::string, size_t>> VarKeys(const Lineage& lineage) {
  std::vector<std::pair<std::string, size_t>> keys;
  for (const LineageVar& lv : lineage.vars) {
    keys.emplace_back(lv.relation, lv.row);
  }
  return keys;
}

// The differential generator's cases (differential_test's seed stream):
// `BuildUcqLineage` must give the reference's variables, probabilities,
// formula and DPLL bits. The cases are checked to cover certain and
// impossible tuples, a row matched by two self-joined atoms, and unions of
// one to three disjuncts.
TEST(OneGrounding, UcqLineageMatchesReferenceOnDifferentialCases) {
  size_t certain = 0, impossible = 0, shared_row = 0;
  std::vector<size_t> by_width(4, 0);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
    for (int round = 0; round < 25; ++round) {
      Database db = RandomVocabularyDb(&rng);
      Ucq ucq = pdb::testing::RandomUcq(&rng);
      SCOPED_TRACE(ucq.ToString());
      ++by_width[ucq.size()];

      FormulaManager mgr;
      auto lineage = BuildUcqLineage(ucq, db, &mgr);
      ASSERT_TRUE(lineage.ok()) << lineage.status().ToString();
      FormulaManager ref_mgr;
      Lineage reference = ReferenceUcqLineage(ucq, db, &ref_mgr);
      EXPECT_EQ(VarKeys(*lineage), VarKeys(reference));
      EXPECT_EQ(lineage->probs, reference.probs);
      EXPECT_EQ(mgr.ToString(lineage->root), ref_mgr.ToString(reference.root));
      auto p = DpllCounter(&mgr, WeightsFromProbabilities(lineage->probs))
                   .Compute(lineage->root);
      auto ref_p =
          DpllCounter(&ref_mgr, WeightsFromProbabilities(reference.probs))
              .Compute(reference.root);
      ASSERT_TRUE(p.ok() && ref_p.ok());
      EXPECT_EQ(*p, *ref_p);

      // Coverage of the cases the renumbering must get right.
      auto dnf = BuildUcqDnf(ucq, db);
      ASSERT_TRUE(dnf.ok());
      for (double prob : dnf->probs) {
        certain += prob == 1.0;
        impossible += prob == 0.0;
      }
      for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
        ASSERT_TRUE(EnumerateCqMatchesReference(cq, db, [&](const CqMatch& m) {
                      std::set<std::pair<std::string, size_t>> rows;
                      for (const LineageVar& lv : m.atom_rows) {
                        rows.emplace(lv.relation, lv.row);
                      }
                      shared_row += rows.size() < m.atom_rows.size();
                    }).ok());
      }
    }
  }
  EXPECT_GT(certain, 0u);
  EXPECT_GT(impossible, 0u);
  EXPECT_GT(shared_row, 0u);
  EXPECT_GT(by_width[1], 0u);
  EXPECT_GT(by_width[2], 0u);
  EXPECT_GT(by_width[3], 0u);
}

TEST(OneGrounding, LineageOfDnfDropsCertainTuplesAndRenumbers) {
  DnfLineage dnf;
  dnf.vars = {{"R", 0}, {"S", 4}, {"T", 2}, {"R", 1}};
  dnf.probs = {1.0, 0.5, 0.0, 0.25};
  dnf.terms = {{0, 2}, {0, 1, 3}, {1}};
  FormulaManager mgr;
  Lineage lineage = LineageOfDnf(dnf, &mgr);
  // R(0) is certain: no formula variable. The rest in first-use order:
  // T(2), then S(4), then R(1).
  EXPECT_EQ(VarKeys(lineage),
            (std::vector<std::pair<std::string, size_t>>{
                {"T", 2}, {"S", 4}, {"R", 1}}));
  EXPECT_EQ(lineage.probs, (std::vector<double>{0.0, 0.5, 0.25}));
  EXPECT_EQ(mgr.ToString(lineage.root), "(x0 | x1 | (x1 & x2))");
}

TEST(OneGrounding, LineageOfDnfAllCertainIsTrueAndEmptyIsFalse) {
  DnfLineage certain;
  certain.vars = {{"R", 0}, {"R", 1}};
  certain.probs = {1.0, 1.0};
  certain.terms = {{0}, {0, 1}};
  FormulaManager mgr;
  Lineage all_certain = LineageOfDnf(certain, &mgr);
  EXPECT_EQ(mgr.ToString(all_certain.root), "true");
  EXPECT_TRUE(all_certain.vars.empty());
  EXPECT_TRUE(all_certain.probs.empty());

  Lineage empty = LineageOfDnf(DnfLineage{}, &mgr);
  EXPECT_EQ(mgr.ToString(empty.root), "false");
  EXPECT_TRUE(empty.vars.empty());
}

// 200 more random (database, CQ) cases, from a second seed stream: the
// match stream must equal the reference matcher's exactly — same matches,
// same order — under both join-order policies. This is the oracle for the
// dictionary encoding, the code translation tables, and the batch
// candidate filters.
TEST(ColumnarGrounding, MatchesReferenceOnRandomCases) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 6151 + 3);
    Database db = RandomVocabularyDb(&rng);
    ConjunctiveQuery cq = RandomCq(&rng);
    MatchList expected = CollectReference(cq, db);
    for (AtomOrderPolicy policy :
         {AtomOrderPolicy::kCostBased, AtomOrderPolicy::kSyntactic}) {
      GroundingOptions options;
      options.order = policy;
      EXPECT_EQ(Collect(cq, db, options), expected)
          << "seed " << seed << " cq " << cq.ToString();
    }
  }
}

/// A chain TID: R(i) and S(i, (i + j) mod n) for j < 4.
Database BigChainDatabase(size_t n) {
  Database db;
  Relation r("R", Schema::Anonymous(1, ValueType::kInt));
  Relation s("S", Schema::Anonymous(2, ValueType::kInt));
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    PDB_CHECK(r.AddTuple({Value(static_cast<int64_t>(i))},
                         0.1 + 0.8 * rng.NextDouble())
                  .ok());
    for (size_t j = 0; j < 4; ++j) {
      PDB_CHECK(s.AddTuple({Value(static_cast<int64_t>(i)),
                            Value(static_cast<int64_t>((i + j) % n))},
                           0.1 + 0.8 * rng.NextDouble())
                    .ok());
    }
  }
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  return db;
}

// A self-join whose second S probe keys on a slot bound by the first S:
// the probe goes through the cross-column code translation table.
TEST(ColumnarGrounding, SelfJoinMatchesReference) {
  Database db = BigChainDatabase(96);
  ConjunctiveQuery cq({Atom("R", {Term::Var("x")}),
                       Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("S", {Term::Var("y"), Term::Var("z")})});
  MatchList expected = CollectReference(cq, db);
  EXPECT_EQ(expected.size(), 96u * 16u);
  EXPECT_EQ(Collect(cq, db, GroundingOptions{}), expected);
}

// A query constant absent from every dictionary takes the impossible
// fast-path: zero matches, no crash, and the reference agrees.
TEST(ColumnarGrounding, AbsentConstantYieldsNoMatches) {
  Database db = BigChainDatabase(64);
  ConjunctiveQuery cq({Atom("S", {Term::Const(Value(int64_t{-5})),
                                  Term::Var("y")})});
  EXPECT_TRUE(Collect(cq, db, GroundingOptions{}).empty());
  EXPECT_TRUE(CollectReference(cq, db).empty());
}

// Two 8-column relations of 256 rows with 256 distinct values per column,
// joined on all 8 columns: the composite key spans 256^8 = 2^64 codes, one
// past what a 64-bit mixed-radix code holds. B lists A's rows in reverse,
// so every A row matches exactly one B row and the pairing is not the
// identity.
TEST(ColumnarGrounding, WideCompositeKeyMatchesReference) {
  constexpr int64_t kRows = 256;
  constexpr int64_t kCols = 8;
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    Tuple t;
    // An odd multiplier is a bijection mod 256: 256 distinct values per
    // column.
    for (int64_t c = 0; c < kCols; ++c) {
      t.push_back(Value((i * (2 * c + 1) + c) % kRows));
    }
    rows.push_back(std::move(t));
  }
  Database db;
  Relation a("A", Schema::Anonymous(kCols, ValueType::kInt));
  Relation b("B", Schema::Anonymous(kCols, ValueType::kInt));
  for (int64_t i = 0; i < kRows; ++i) {
    PDB_CHECK(a.AddTuple(rows[i], 0.5).ok());
    PDB_CHECK(b.AddTuple(rows[kRows - 1 - i], 0.5).ok());
  }
  PDB_CHECK(db.AddRelation(std::move(a)).ok());
  PDB_CHECK(db.AddRelation(std::move(b)).ok());
  std::vector<Term> args;
  for (int64_t c = 0; c < kCols; ++c) {
    args.push_back(Term::Var("x" + std::to_string(c)));
  }
  ConjunctiveQuery cq({Atom("A", args), Atom("B", args)});
  MatchList expected = CollectReference(cq, db);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRows));
  IndexCache cache;
  ExecContext ctx;
  ctx.set_index_cache(&cache);
  for (AtomOrderPolicy policy :
       {AtomOrderPolicy::kCostBased, AtomOrderPolicy::kSyntactic}) {
    GroundingOptions options;
    options.order = policy;
    EXPECT_EQ(Collect(cq, db, options), expected);
    options.exec = &ctx;  // the session-cached index
    EXPECT_EQ(Collect(cq, db, options), expected);
  }
}

// A(x, g), S(x, g, z), T(z, v): in either join order S is keyed on
// (x, g) and runs before T. S's g column has the most distinct values, so
// the key reads the g bucket, and five of its six rows fail the x check.
// Each passing row runs T's probe before S checks the rest of its bucket,
// so T must not overwrite the key codes S checks against.
TEST(ColumnarGrounding, CompositeKeyBeforeALaterStep) {
  constexpr int64_t kX = 6;
  Relation a("A", Schema::Anonymous(2, ValueType::kInt));
  Relation s("S", Schema::Anonymous(3, ValueType::kInt));
  Relation t("T", Schema::Anonymous(2, ValueType::kInt));
  for (int64_t g = 0; g < 20; ++g) {
    for (int64_t x = 0; x < kX; ++x) {
      if (g < 2) PDB_CHECK(a.AddTuple({Value(x), Value(g)}, 0.5).ok());
      PDB_CHECK(s.AddTuple({Value(x), Value(g), Value((x + 1) % kX)}, 0.5)
                    .ok());
    }
  }
  for (int64_t z = 0; z < kX; ++z) {
    for (int64_t v = 0; v < 3; ++v) {
      PDB_CHECK(t.AddTuple({Value(z), Value(v)}, 0.5).ok());
    }
  }
  Database db;
  PDB_CHECK(db.AddRelation(std::move(a)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  ConjunctiveQuery cq({Atom("A", {Term::Var("x"), Term::Var("g")}),
                       Atom("S", {Term::Var("x"), Term::Var("g"),
                                  Term::Var("z")}),
                       Atom("T", {Term::Var("z"), Term::Var("v")})});
  MatchList expected = CollectReference(cq, db);
  ASSERT_EQ(expected.size(), static_cast<size_t>(2 * kX * 3));
  IndexCache cache;
  ExecContext ctx;
  ctx.set_index_cache(&cache);
  for (AtomOrderPolicy policy :
       {AtomOrderPolicy::kCostBased, AtomOrderPolicy::kSyntactic}) {
    GroundingOptions options;
    options.order = policy;
    EXPECT_EQ(Collect(cq, db, options), expected);
    options.exec = &ctx;  // the session-cached index
    EXPECT_EQ(Collect(cq, db, options), expected);
  }
}

TEST(IndexCacheTest, BuildsOnceAndHitsAfterwards) {
  Rng rng(3);
  Database db = RandomVocabularyDb(&rng);
  const Relation* s = db.Get("S").value();
  IndexCache cache;
  bool built = false;
  auto a = cache.GetOrBuildColumnarIndex(s->columnar(), 0, &built);
  EXPECT_TRUE(built);
  auto b = cache.GetOrBuildColumnarIndex(s->columnar(), 0, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(a.get(), b.get());
  auto c = cache.GetOrBuildColumnarIndex(s->columnar(), 1, &built);
  EXPECT_TRUE(built);
  EXPECT_NE(a.get(), c.get());
  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

// A join that keys S on (g, x) and a lookup of S by g alone both read the
// g column's index, since g has the most distinct values in S: one cache
// builds it once and serves it to both.
TEST(IndexCacheTest, OneIndexPerColumn) {
  Relation r("R", Schema::Anonymous(2, ValueType::kInt));
  Relation s("S", Schema::Anonymous(3, ValueType::kInt));
  for (int64_t g = 0; g < 10; ++g) {
    for (int64_t x = 0; x < 3; ++x) {
      PDB_CHECK(r.AddTuple({Value(g), Value(x)}, 0.5).ok());
      for (int64_t y = 0; y < 2; ++y) {
        PDB_CHECK(s.AddTuple({Value(g), Value(x), Value(y)}, 0.5).ok());
      }
    }
  }
  Database db;
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  const Relation* stored = db.Get("S").value();
  ASSERT_EQ(ProbedKeyPart(*stored->columnar(), {0, 1}), 0u);
  IndexCache cache;
  ExecContext ctx;
  ctx.set_index_cache(&cache);
  ConjunctiveQuery cq({Atom("R", {Term::Var("g"), Term::Var("x")}),
                       Atom("S", {Term::Var("g"), Term::Var("x"),
                                  Term::Var("y")})});
  GroundingOptions options;
  options.order = AtomOrderPolicy::kSyntactic;  // R scans, S probes
  options.exec = &ctx;
  EXPECT_EQ(Collect(cq, db, options), CollectReference(cq, db));
  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  std::vector<uint32_t> rows =
      MatchingRows(*stored, {0}, {Value(4)}, &cache, &ctx);
  EXPECT_EQ(rows, (std::vector<uint32_t>{24, 25, 26, 27, 28, 29}));
  stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  ExecReport report = ctx.Report();
  EXPECT_EQ(report.index_builds, 1u);
  EXPECT_EQ(report.index_cache_hits, 1u);
}

// Entries are keyed by the columnar image they were built from, so a
// relation freed and re-created at a recycled address never meets its
// predecessor's index. Every round holds new values, so a stale index
// shows in a lookup of any row.
TEST(IndexCacheTest, RecycledRelationAddressGetsAFreshIndex) {
  IndexCache cache;
  for (int64_t round = 0; round < 200; ++round) {
    auto rel = std::make_unique<Relation>("R", Schema::Anonymous(2));
    const int64_t rows = 1 + round % 7;
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(rel->AddTuple({Value(round + i), Value(i)}, 0.5).ok());
    }
    auto image = rel->columnar();
    auto index = cache.GetOrBuildColumnarIndex(image, 0);
    for (size_t row = 0; row < rel->size(); ++row) {
      const uint32_t* bucket = nullptr;
      size_t count = 0;
      index->Lookup(image->codes(0)[row], &bucket, &count);
      ASSERT_EQ(count, 1u);
      EXPECT_EQ(bucket[0], row);
    }
  }
}

// Eight clients hammer one cache over the same relations (with periodic
// clears from a ninth); every returned index must answer lookups
// correctly — and under TSan this doubles as the data-race check.
TEST(IndexCacheTest, ConcurrentClientsAndClears) {
  Rng rng(4);
  Database db = RandomVocabularyDb(&rng);
  const Relation* s = db.Get("S").value();
  const Relation* u = db.Get("U").value();
  IndexCache cache;
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      Rng local(static_cast<uint64_t>(t) + 100);
      for (int iter = 0; iter < 400; ++iter) {
        const Relation* rel = (iter % 2 == 0) ? s : u;
        size_t col = local.Bernoulli(0.5) ? 0 : 1;
        // The shared_ptrs keep the image and index alive across
        // concurrent clears.
        auto image = rel->columnar();
        auto index = cache.GetOrBuildColumnarIndex(image, col);
        size_t row = local.Uniform(rel->size());
        const uint32_t* rows = nullptr;
        size_t count = 0;
        index->Lookup(image->codes(col)[row], &rows, &count);
        EXPECT_GT(count, 0u);
        EXPECT_TRUE(std::find(rows, rows + count, row) != rows + count);
      }
    });
  }
  std::thread clearer([&] {
    while (!stop.load()) {
      cache.Clear();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : clients) t.join();
  stop.store(true);
  clearer.join();
  EXPECT_GT(cache.stats().builds, 0u);
}

// The session carries one index cache across queries: the second identical
// grounding hits instead of rebuilding, and a database mutation drops the
// entries with the rest of the generation-keyed caches.
TEST(SessionIndexCache, ReusedAcrossQueriesAndInvalidated) {
  ProbDatabase pdb;
  {
    Rng rng(5);
    Database db = RandomVocabularyDb(&rng);
    for (const std::string& name : db.RelationNames()) {
      PDB_CHECK(pdb.AddRelation(*db.Get(name).value()).ok());
    }
  }
  SessionOptions options;
  options.num_threads = 1;
  options.cache_results = false;  // force re-grounding per query
  Session session(&pdb, options);
  QueryOptions q;
  ConjunctiveQuery cq({Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("U", {Term::Var("y"), Term::Var("z")})});
  ASSERT_TRUE(session.QueryWithAnswers(cq, {"x"}, q).ok());
  IndexCacheStats first = session.index_cache_stats();
  EXPECT_GT(first.builds, 0u);
  ASSERT_TRUE(session.QueryWithAnswers(cq, {"x"}, q).ok());
  IndexCacheStats second = session.index_cache_stats();
  EXPECT_EQ(second.builds, first.builds);  // nothing rebuilt
  EXPECT_GT(second.hits, first.hits);
  ExecReport report = session.CumulativeReport();
  EXPECT_GT(report.lineage_matches, 0u);
  EXPECT_GT(report.index_builds + report.index_cache_hits, 0u);

  // Mutating the database bumps the generation; the next query must drop
  // the stale indexes and rebuild.
  Relation extra("V", Schema::Anonymous(1, ValueType::kInt));
  PDB_CHECK(extra.AddTuple({Value(static_cast<int64_t>(1))}, 0.5).ok());
  PDB_CHECK(pdb.AddRelation(std::move(extra)).ok());
  ASSERT_TRUE(session.QueryWithAnswers(cq, {"x"}, q).ok());
  EXPECT_GT(session.index_cache_stats().builds, second.builds);
}

// Planted correlation: Corr(x, y) carries y == x on every row, so the
// independence product (size / distinct(x) / distinct(y) = 0.01 rows per
// probe) wildly understates it, while the composite distinct count (100
// observed pairs) prices the probe correctly at 1 row. The cost-based
// order must therefore prefer the genuinely-selective Other — equally
// priced at 1 row but smaller — over the correlated trap when both
// columns are bound.
TEST(CostBasedOrdering, CompositeDistinctBeatsIndependenceOnCorrelation) {
  Database db;
  Relation driver("Sm", Schema::Anonymous(2, ValueType::kInt));
  for (int64_t i = 0; i < 10; ++i) {
    PDB_CHECK(driver.AddTuple({Value(i), Value(i)}, 0.5).ok());
  }
  // 100 rows, y == x: distinct(x) = distinct(y) = 100, composite = 100.
  Relation corr("Corr", Schema::Anonymous(2, ValueType::kInt));
  for (int64_t i = 0; i < 100; ++i) {
    PDB_CHECK(corr.AddTuple({Value(i), Value(i)}, 0.5).ok());
  }
  // 20 rows, (i mod 4, i mod 5): distinct(x) = 4, distinct(y) = 5, and by
  // CRT all 20 pairs are distinct — composite = 20, so the composite and
  // independence estimates agree at 1 row per probe.
  Relation other("Other", Schema::Anonymous(2, ValueType::kInt));
  for (int64_t i = 0; i < 20; ++i) {
    PDB_CHECK(other.AddTuple({Value(i % 4), Value(i % 5)}, 0.5).ok());
  }
  PDB_CHECK(db.AddRelation(std::move(driver)).ok());
  PDB_CHECK(db.AddRelation(std::move(corr)).ok());
  PDB_CHECK(db.AddRelation(std::move(other)).ok());

  ConjunctiveQuery cq({Atom("Corr", {Term::Var("x"), Term::Var("y")}),
                       Atom("Other", {Term::Var("x"), Term::Var("y")}),
                       Atom("Sm", {Term::Var("x"), Term::Var("y")})});
  GroundingOptions options;
  options.order = AtomOrderPolicy::kCostBased;
  auto plan = PlanCqJoin(cq, db, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->steps.size(), 3u);
  // Smallest relation drives; then both candidates estimate 1 row per
  // probe under composite stats and the tie breaks to the smaller Other.
  // (The independence product would order Corr second at 0.01 estimated
  // rows — exactly the correlated-pair trap.)
  EXPECT_EQ(plan->steps[0].predicate, "Sm");
  EXPECT_EQ(plan->steps[1].predicate, "Other");
  EXPECT_EQ(plan->steps[2].predicate, "Corr");
  EXPECT_DOUBLE_EQ(plan->steps[1].estimated_rows, 1.0);
  EXPECT_DOUBLE_EQ(plan->steps[2].estimated_rows, 1.0);
}

}  // namespace
}  // namespace pdb
