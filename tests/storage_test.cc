#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/coding.h"
#include "storage/columnar.h"
#include "storage/crc32c.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/env.h"
#include "storage/index_cache.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "storage/wal.h"
#include "test_common.h"
#include "util/random.h"

namespace pdb {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{42}), d(2.5), s("abc");
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  EXPECT_EQ(s.AsString(), "abc");
}

TEST(ValueTest, OrderingIsTotal) {
  // Across types: int < double < string (by variant index).
  EXPECT_LT(Value(5), Value(1.0));
  EXPECT_LT(Value(9.0), Value("a"));
  EXPECT_LT(Value(3), Value(7));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, EqualityRespectsType) {
  EXPECT_NE(Value(1), Value(1.0));
  EXPECT_EQ(Value("x"), Value(std::string("x")));
}

TEST(ValueTest, Parse) {
  EXPECT_EQ(Value::Parse("42", ValueType::kInt)->AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Parse(" 0.5 ", ValueType::kDouble)->AsDouble(), 0.5);
  EXPECT_EQ(Value::Parse("hi", ValueType::kString)->AsString(), "hi");
  EXPECT_FALSE(Value::Parse("4x", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("", ValueType::kDouble).ok());
}

TEST(ValueTest, HashDistinguishesTypes) {
  EXPECT_NE(Value(1).hash(), Value(1.0).hash());
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, IndexOfAndValidate) {
  Schema schema({{"x", ValueType::kInt}, {"y", ValueType::kString}});
  EXPECT_EQ(*schema.IndexOf("y"), 1u);
  EXPECT_FALSE(schema.IndexOf("z").ok());
  EXPECT_TRUE(schema.Validate({Value(1), Value("a")}).ok());
  EXPECT_FALSE(schema.Validate({Value(1)}).ok());
  EXPECT_FALSE(schema.Validate({Value(1), Value(2)}).ok());
}

TEST(SchemaTest, Anonymous) {
  Schema schema = Schema::Anonymous(3, ValueType::kInt);
  EXPECT_EQ(schema.arity(), 3u);
  EXPECT_EQ(schema.attribute(2).name, "a2");
}

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

TEST(RelationTest, AddAndFind) {
  Relation rel("R", Schema::Anonymous(2));
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(2)}, 0.5).ok());
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(3)}, 0.25).ok());
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains({Value(1), Value(2)}));
  EXPECT_DOUBLE_EQ(rel.ProbOf({Value(1), Value(3)}), 0.25);
  EXPECT_DOUBLE_EQ(rel.ProbOf({Value(9), Value(9)}), 0.0);
  EXPECT_FALSE(rel.Contains({Value(9), Value(9)}));
  EXPECT_EQ(*rel.Find({Value(1), Value(3)}), 1u);
  // Find keeps its message for callers that report it.
  auto missing = rel.Find({Value(9), Value(9)});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("not in relation 'R'"),
            std::string::npos);
}

TEST(RelationTest, RejectsDuplicates) {
  Relation rel("R", Schema::Anonymous(1));
  ASSERT_TRUE(rel.AddTuple({Value(1)}, 0.5).ok());
  Status dup = rel.AddTuple({Value(1)}, 0.9);
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, RejectsBadProbability) {
  Relation rel("R", Schema::Anonymous(1));
  EXPECT_EQ(rel.AddTuple({Value(1)}, -0.1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(rel.AddTuple({Value(1)}, 1.5).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(rel.AddTuple({Value(1)}, 0.0).ok());  // 0 and 1 are legal
}

TEST(RelationTest, RejectsSchemaMismatch) {
  Relation rel("R", Schema({{"x", ValueType::kString}}));
  EXPECT_FALSE(rel.AddTuple({Value(1)}, 0.5).ok());
}

TEST(RelationTest, DistinctValuesSorted) {
  Relation rel("S", Schema::Anonymous(2));
  ASSERT_TRUE(rel.AddTuple({Value(2), Value(7)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(7)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(2), Value(8)}, 1).ok());
  const std::vector<Value>& xs = rel.columnar()->dict(0);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0].AsInt(), 1);
  EXPECT_EQ(xs[1].AsInt(), 2);
  EXPECT_EQ(rel.columnar()->dict(1).size(), 2u);
}

TEST(RelationTest, IsDeterministic) {
  Relation rel("R", Schema::Anonymous(1));
  ASSERT_TRUE(rel.AddTuple({Value(1)}, 1.0).ok());
  EXPECT_TRUE(rel.IsDeterministic());
  ASSERT_TRUE(rel.AddTuple({Value(2)}, 0.5).ok());
  EXPECT_FALSE(rel.IsDeterministic());
}

TEST(HashIndexTest, LookupByKey) {
  Relation rel("S", Schema::Anonymous(2));
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(10)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(11)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(2), Value(12)}, 1).ok());
  HashIndex index(rel, {0});
  EXPECT_EQ(index.Lookup({Value(1)}).size(), 2u);
  EXPECT_EQ(index.Lookup({Value(2)}).size(), 1u);
  EXPECT_TRUE(index.Lookup({Value(3)}).empty());
  HashIndex pair_index(rel, {0, 1});
  EXPECT_EQ(pair_index.Lookup({Value(1), Value(11)}).size(), 1u);
}

// ---------------------------------------------------------------------------
// ColumnarRelation
// ---------------------------------------------------------------------------

// Dictionary round-trip over every Value type: sorted dictionaries, codes
// that decode back to the original cell, CodeOf finding every present
// value and returning the sentinel for absent ones of each type.
TEST(ColumnarRelationTest, DictionaryRoundTripsEveryValueType) {
  Schema schema({{"i", ValueType::kInt},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
  Relation rel("Mixed", schema);
  ASSERT_TRUE(
      rel.AddTuple({Value(int64_t{3}), Value(2.5), Value("b")}, 1).ok());
  ASSERT_TRUE(
      rel.AddTuple({Value(int64_t{1}), Value(-0.5), Value("a")}, 1).ok());
  ASSERT_TRUE(
      rel.AddTuple({Value(int64_t{3}), Value(2.5), Value("c")}, 1).ok());
  auto cols = ColumnarRelation::Build(rel);
  ASSERT_EQ(cols->num_rows(), 3u);
  ASSERT_EQ(cols->num_cols(), 3u);
  for (size_t c = 0; c < cols->num_cols(); ++c) {
    const std::vector<Value>& dict = cols->dict(c);
    EXPECT_TRUE(std::is_sorted(dict.begin(), dict.end()));
    ASSERT_EQ(cols->codes(c).size(), rel.size());
    for (size_t row = 0; row < rel.size(); ++row) {
      uint32_t code = cols->codes(c)[row];
      ASSERT_LT(code, dict.size());
      EXPECT_EQ(dict[code], rel.tuple(row)[c]);
      EXPECT_EQ(cols->CodeOf(c, rel.tuple(row)[c]), code);
    }
  }
  EXPECT_EQ(cols->distinct(0), 2u);
  EXPECT_EQ(cols->distinct(1), 2u);
  EXPECT_EQ(cols->distinct(2), 3u);
  EXPECT_EQ(cols->CodeOf(0, Value(int64_t{7})), ColumnarRelation::kNoCode);
  EXPECT_EQ(cols->CodeOf(1, Value(9.75)), ColumnarRelation::kNoCode);
  EXPECT_EQ(cols->CodeOf(2, Value("zz")), ColumnarRelation::kNoCode);
}

// The sidecar is built once per relation state: repeated columnar() calls
// share one image, its dictionary is the sorted distinct-value list, and a
// mutation invalidates it so the next build sees the new row.
TEST(ColumnarRelationTest, SidecarCachedOnRelationAndInvalidated) {
  Relation rel("S", Schema::Anonymous(2));
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(10)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(2), Value(10)}, 1).ok());
  EXPECT_EQ(rel.columnar_if_built(), nullptr);
  auto a = rel.columnar();
  auto b = rel.columnar();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->dict(1), (std::vector<Value>{Value(10)}));
  ASSERT_TRUE(rel.AddTuple({Value(3), Value(11)}, 1).ok());
  EXPECT_EQ(rel.columnar_if_built(), nullptr);
  auto c = rel.columnar();
  EXPECT_EQ(c->num_rows(), 3u);
  EXPECT_EQ(c->distinct(1), 2u);
}

TEST(ColumnarIndexTest, SingleColumnCsrLookup) {
  Relation rel("S", Schema::Anonymous(2));
  ASSERT_TRUE(rel.AddTuple({Value(2), Value(10)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(11)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(2), Value(12)}, 1).ok());
  auto cols = ColumnarRelation::Build(rel);
  ColumnarIndex index(cols, 0);
  const uint32_t* rows = nullptr;
  size_t count = 0;
  index.Lookup(cols->CodeOf(0, Value(1)), &rows, &count);
  ASSERT_EQ(count, 1u);
  EXPECT_EQ(rows[0], 1u);
  index.Lookup(cols->CodeOf(0, Value(2)), &rows, &count);
  ASSERT_EQ(count, 2u);
  EXPECT_EQ(rows[0], 0u);  // bucket rows ascend, matching HashIndex
  EXPECT_EQ(rows[1], 2u);
}

// The ids of `rel`'s rows whose columns `key_cols` hold `key`, by a scan.
std::vector<uint32_t> ScanMatchingRows(const Relation& rel,
                                       const std::vector<size_t>& key_cols,
                                       const Tuple& key) {
  std::vector<uint32_t> rows;
  for (size_t row = 0; row < rel.size(); ++row) {
    bool same = true;
    for (size_t p = 0; p < key_cols.size(); ++p) {
      same = same && rel.tuple(row)[key_cols[p]] == key[p];
    }
    if (same) rows.push_back(static_cast<uint32_t>(row));
  }
  return rows;
}

// A two-column key probes the bucket of its column with more distinct
// values and checks the other one per row.
TEST(ColumnarIndexTest, CompositeKeyLookup) {
  Relation rel("S", Schema::Anonymous(3));
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(10), Value(0)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(11), Value(0)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(2), Value(10), Value(0)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(1), Value(10), Value(1)}, 1).ok());
  ASSERT_TRUE(rel.AddTuple({Value(3), Value(10), Value(1)}, 1).ok());
  std::vector<size_t> key_cols = {0, 1};
  EXPECT_EQ(ProbedKeyPart(*rel.columnar(), key_cols), 0u);  // 3 vs 2 values
  EXPECT_EQ(ProbedKeyPart(*rel.columnar(), {1, 2}), 0u);    // a tie: first
  Tuple key = {Value(1), Value(10)};
  std::vector<uint32_t> rows =
      MatchingRows(rel, key_cols, key, nullptr, nullptr);
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(rows, ScanMatchingRows(rel, key_cols, key));
  // A key combination nobody has matches no row.
  Tuple absent = {Value(2), Value(11)};
  EXPECT_TRUE(MatchingRows(rel, key_cols, absent, nullptr, nullptr).empty());
  EXPECT_TRUE(ScanMatchingRows(rel, key_cols, absent).empty());
}

// An 8-column key with 256 distinct values per column spans 256^8 = 2^64
// composite codes, past a 64-bit mixed-radix code. Every key occurs twice
// (a ninth column tells the copies apart) and one code tuple occurs never.
TEST(ColumnarIndexTest, WideCompositeKeyLookup) {
  constexpr int64_t kRows = 256;
  constexpr size_t kCols = 8;
  Relation rel("W", Schema::Anonymous(kCols + 1));
  for (int64_t copy = 0; copy < 2; ++copy) {
    for (int64_t i = 0; i < kRows; ++i) {
      // Copy 1 lists the keys in a different order than copy 0.
      int64_t k = copy == 0 ? i : (i * 3) % kRows;
      Tuple t;
      for (size_t c = 0; c < kCols; ++c) {
        t.push_back(Value((k * static_cast<int64_t>(2 * c + 1) +
                           static_cast<int64_t>(c)) %
                          kRows));
      }
      t.push_back(Value(copy));
      ASSERT_TRUE(rel.AddTuple(std::move(t), 1).ok());
    }
  }
  std::vector<size_t> key_cols = {0, 1, 2, 3, 4, 5, 6, 7};
  // The composite code overflows 64 bits.
  EXPECT_EQ(DistinctComposite(*rel.columnar(), key_cols), 0u);
  IndexCache cache;
  for (size_t row = 0; row < rel.size(); ++row) {
    Tuple key(rel.tuple(row).begin(), rel.tuple(row).begin() + kCols);
    std::vector<uint32_t> want = ScanMatchingRows(rel, key_cols, key);
    ASSERT_EQ(want.size(), 2u);
    EXPECT_EQ(MatchingRows(rel, key_cols, key, &cache, nullptr), want)
        << "row " << row;
  }
  // No row carries value 0 in every key column.
  Tuple absent(kCols, Value(0));
  EXPECT_TRUE(MatchingRows(rel, key_cols, absent, &cache, nullptr).empty());
  EXPECT_TRUE(ScanMatchingRows(rel, key_cols, absent).empty());
}

TEST(ColumnarStatsTest, DistinctCompositeCountsObservedPairs) {
  // y == x on every row: the composite distinct count sees the
  // correlation (4 pairs), where the independence product would say 16.
  Relation rel("Corr", Schema::Anonymous(2));
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rel.AddTuple({Value(i), Value(i)}, 1).ok());
  }
  auto cols = ColumnarRelation::Build(rel);
  EXPECT_EQ(DistinctComposite(*cols, {0, 1}), 4u);
  EXPECT_EQ(DistinctComposite(*cols, {0}), 4u);
  EXPECT_EQ(DistinctComposite(*cols, {}), 0u);  // no key columns

  Relation grid("Grid", Schema::Anonymous(2));
  for (int64_t x = 0; x < 2; ++x) {
    for (int64_t y = 0; y < 3; ++y) {
      ASSERT_TRUE(grid.AddTuple({Value(x), Value(y)}, 1).ok());
    }
  }
  auto grid_cols = ColumnarRelation::Build(grid);
  EXPECT_EQ(DistinctComposite(*grid_cols, {0, 1}), 6u);  // full cross product
}

// The image computes each key-column list's count once and hands it to
// every later caller: on any thread, the count must equal a direct count
// of the distinct projected tuples, on the first call and every call
// after it, so join orders and EXPLAIN's estimates cannot move.
TEST(ColumnarStatsTest, DistinctCompositeMatchesReferenceFromAnyThread) {
  Relation rel("S", Schema::Anonymous(3));
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        rel.AddTuple({Value(i % 7), Value((i * 5) % 11), Value(i / 3)}, 0.5)
            .ok());
  }
  auto cols = ColumnarRelation::Build(rel);
  const std::vector<std::vector<size_t>> keys = {
      {0}, {0, 1}, {1, 0}, {0, 2}, {1, 2}, {2, 1}, {0, 1, 2}};
  std::vector<size_t> want;
  for (const auto& key : keys) {
    std::set<std::vector<Value>> seen;
    for (const Tuple& t : rel.tuples()) {
      std::vector<Value> projected;
      for (size_t c : key) projected.push_back(t[c]);
      seen.insert(std::move(projected));
    }
    want.push_back(seen.size());
  }
  EXPECT_EQ(want[1], 77u);  // every (i mod 7, 5i mod 11) pair occurs
  std::vector<std::vector<size_t>> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 3; ++pass) {
        for (const auto& key : keys) {
          got[t].push_back(DistinctComposite(*cols, key));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<size_t>& counts : got) {
    ASSERT_EQ(counts.size(), 3 * keys.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i], want[i % keys.size()]) << "key " << i % keys.size();
    }
  }
}

TEST(ColumnarTest, CodeTranslationAlignsTwoDictionaries) {
  std::vector<Value> src = {Value(1), Value(3), Value(5)};
  std::vector<Value> dst = {Value(3), Value(4), Value(5)};
  std::vector<uint32_t> xlat = BuildCodeTranslation(src, dst);
  ASSERT_EQ(xlat.size(), 3u);
  EXPECT_EQ(xlat[0], ColumnarRelation::kNoCode);  // 1 not in dst
  EXPECT_EQ(xlat[1], 0u);                         // 3 -> code 0
  EXPECT_EQ(xlat[2], 2u);                         // 5 -> code 2
  EXPECT_TRUE(BuildCodeTranslation({}, dst).empty());
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

TEST(DatabaseTest, CatalogOperations) {
  Database db = testing::BuildFigure1Database();
  EXPECT_TRUE(db.HasRelation("R"));
  EXPECT_TRUE(db.HasRelation("S"));
  EXPECT_FALSE(db.HasRelation("T"));
  EXPECT_EQ((*db.Get("R"))->size(), 3u);
  EXPECT_FALSE(db.Get("T").ok());
  EXPECT_EQ(db.TupleCount(), 9u);
  EXPECT_EQ(db.RelationNames(), (std::vector<std::string>{"R", "S"}));
}

TEST(DatabaseTest, DuplicateRelationRejected) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("R", Schema::Anonymous(1)).ok());
  EXPECT_FALSE(db.CreateRelation("R", Schema::Anonymous(2)).ok());
}

TEST(DatabaseTest, ActiveDomain) {
  Database db = testing::BuildFigure1Database();
  std::vector<Value> domain = db.ActiveDomain();
  // a1..a4 and b1..b6 -> 10 distinct constants.
  EXPECT_EQ(domain.size(), 10u);
  EXPECT_TRUE(std::is_sorted(domain.begin(), domain.end()));
}

TEST(DatabaseTest, SampleWorldRespectsExtremes) {
  Database db;
  Relation rel("R", Schema::Anonymous(1));
  ASSERT_TRUE(rel.AddTuple({Value(1)}, 1.0).ok());
  ASSERT_TRUE(rel.AddTuple({Value(2)}, 0.0).ok());
  ASSERT_TRUE(db.AddRelation(std::move(rel)).ok());
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    Database world = db.SampleWorld(&rng);
    const Relation* r = *world.Get("R");
    EXPECT_TRUE(r->Contains({Value(1)}));
    EXPECT_FALSE(r->Contains({Value(2)}));
    EXPECT_TRUE(r->IsDeterministic());
  }
}

TEST(DatabaseTest, SampleWorldFrequency) {
  Database db;
  Relation rel("R", Schema::Anonymous(1));
  ASSERT_TRUE(rel.AddTuple({Value(1)}, 0.25).ok());
  ASSERT_TRUE(db.AddRelation(std::move(rel)).ok());
  Rng rng(11);
  int present = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if ((*db.SampleWorld(&rng).Get("R"))->size() == 1) ++present;
  }
  EXPECT_NEAR(static_cast<double>(present) / kTrials, 0.25, 0.02);
}

TEST(DatabaseTest, CopyOnWriteLeavesOriginalUnchanged) {
  Database db = testing::BuildFigure1Database();
  const Relation* original_r = *db.Get("R");
  const Relation* original_s = *db.Get("S");
  const uint64_t before = Relation::CopyCount();
  Database copy = db;  // shares both relations, copies no tuple
  EXPECT_EQ(Relation::CopyCount(), before);
  EXPECT_EQ(*copy.Get("R"), original_r);
  Relation* mutable_r = *copy.GetMutable("R");
  EXPECT_EQ(Relation::CopyCount(), before + 1);
  EXPECT_NE(mutable_r, original_r);
  ASSERT_TRUE(mutable_r->AddTuple({Value("a9")}, 0.4).ok());
  mutable_r->set_prob(0, 0.99);
  // A second mutable lookup finds the clone unshared: no further copy.
  EXPECT_EQ(*copy.GetMutable("R"), mutable_r);
  EXPECT_EQ(Relation::CopyCount(), before + 1);

  // The original keeps its pointer, tuples and probabilities.
  EXPECT_EQ(*db.Get("R"), original_r);
  EXPECT_EQ(original_r->size(), 3u);
  EXPECT_FALSE(original_r->Contains({Value("a9")}));
  EXPECT_DOUBLE_EQ(original_r->prob(0), 0.3);
  // The copy sees its own mutation.
  EXPECT_EQ(*copy.Get("R"), mutable_r);
  EXPECT_EQ((*copy.Get("R"))->size(), 4u);
  EXPECT_DOUBLE_EQ((*copy.Get("R"))->prob(0), 0.99);
  // The relation the copy did not touch stays shared.
  EXPECT_EQ(*copy.Get("S"), original_s);
  EXPECT_EQ(*db.Get("S"), original_s);
}

TEST(DatabaseTest, GetMutableOnUnsharedRelationMutatesInPlace) {
  Database db = testing::BuildFigure1Database();
  const Relation* r = *db.Get("R");
  { Database dropped = db; }  // shared for a while, then private again
  const uint64_t before = Relation::CopyCount();
  Relation* mutable_r = *db.GetMutable("R");
  EXPECT_EQ(mutable_r, r);
  ASSERT_TRUE(mutable_r->AddTuple({Value("a9")}, 0.4).ok());
  EXPECT_EQ(Relation::CopyCount(), before);
  EXPECT_EQ((*db.Get("R"))->size(), 4u);
}

TEST(DatabaseTest, ConcurrentCopiesMutatePrivately) {
  const Database base = testing::BuildFigure1Database();
  const Relation* base_r = *base.Get("R");
  const Relation* base_s = *base.Get("S");
  const uint64_t before = Relation::CopyCount();
  constexpr int kThreads = 8;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 20; ++round) {
        Database mine = base;
        const Relation* r = *mine.Get("R");
        bool good = r == base_r && r->Contains({Value("a1")}) &&
                    r->ProbOf({Value("a2")}) == 0.5 &&
                    mine.TupleCount() == 9u;
        Relation* mutable_r = *mine.GetMutable("R");
        good = good && mutable_r != base_r;
        mutable_r->set_prob(0, 0.01 * i);
        good = good &&
               mutable_r->AddTuple({Value("t" + std::to_string(i))}).ok() &&
               (*mine.Get("R"))->size() == 4u && *mine.Get("S") == base_s;
        if (good) ++ok[i];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(ok[i], 20) << "thread " << i;
  // Each round cloned R once; S was never copied.
  EXPECT_EQ(Relation::CopyCount(), before + kThreads * 20);
  EXPECT_EQ(*base.Get("R"), base_r);
  EXPECT_EQ(base_r->size(), 3u);
  EXPECT_DOUBLE_EQ(base_r->prob(0), 0.3);
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(CsvTest, ParseWithHeaderAndProbability) {
  Schema schema({{"x", ValueType::kString}, {"y", ValueType::kInt}});
  const std::string text =
      "x,y,P\n"
      "a,1,0.5\n"
      "b,2,1.0\n";
  auto rel = RelationFromCsv("T", schema, text);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_DOUBLE_EQ(rel->ProbOf({Value("a"), Value(1)}), 0.5);
}

TEST(CsvTest, ParseWithoutProbabilityColumn) {
  Schema schema({{"x", ValueType::kInt}});
  CsvOptions options;
  options.has_probability_column = false;
  options.has_header = false;
  auto rel = RelationFromCsv("T", schema, "1\n2\n3\n", options);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 3u);
  EXPECT_TRUE(rel->IsDeterministic());
}

TEST(CsvTest, ErrorsCarryLineNumbers) {
  Schema schema({{"x", ValueType::kInt}});
  auto bad_fields = RelationFromCsv("T", schema, "x,P\n1,0.5,9\n");
  ASSERT_FALSE(bad_fields.ok());
  EXPECT_NE(bad_fields.status().message().find("line 2"), std::string::npos);
  auto bad_prob = RelationFromCsv("T", schema, "x,P\n1,maybe\n");
  EXPECT_FALSE(bad_prob.ok());
  auto bad_value = RelationFromCsv("T", schema, "x,P\nseven,0.5\n");
  EXPECT_FALSE(bad_value.ok());
}

TEST(CsvTest, FileRoundTrip) {
  Database db = testing::BuildFigure1Database();
  const Relation* r = *db.Get("R");
  const std::string path = ::testing::TempDir() + "/pdb_csv_roundtrip.csv";
  ASSERT_TRUE(RelationToCsvFile(*r, path).ok());
  Schema schema({{"x", ValueType::kString}});
  auto back = RelationFromCsvFile("R", schema, path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), r->size());
  for (size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ(back->tuple(i), r->tuple(i));
    EXPECT_DOUBLE_EQ(back->prob(i), r->prob(i));
  }
  EXPECT_FALSE(
      RelationFromCsvFile("R", schema, "/nonexistent/nope.csv").ok());
}

TEST(CsvTest, RoundTrip) {
  Database db = testing::BuildFigure1Database();
  const Relation* s = *db.Get("S");
  std::string text = RelationToCsv(*s);
  Schema schema({{"x", ValueType::kString}, {"y", ValueType::kString}});
  auto back = RelationFromCsv("S", schema, text);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), s->size());
  for (size_t i = 0; i < s->size(); ++i) {
    EXPECT_EQ(back->tuple(i), s->tuple(i));
    EXPECT_DOUBLE_EQ(back->prob(i), s->prob(i));
  }
}


// ---------------------------------------------------------------------------
// CRC-32C (WAL framing checksums)
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // The standard CRC-32C check value: "123456789" -> 0xE3069283.
  EXPECT_EQ(crc32c::Value("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c::Value(""), 0u);
  // 32 zero bytes, per the iSCSI test vectors (RFC 3720 B.4).
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros), 0x8A9136AAu);
  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "hello crc32c world";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t partial = crc32c::Extend(0, data.data(), split);
    uint32_t full =
        crc32c::Extend(partial, data.data() + split, data.size() - split);
    EXPECT_EQ(full, crc32c::Value(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint32_t crc = static_cast<uint32_t>(rng.Uniform(uint64_t{1} << 32));
    uint32_t masked = crc32c::Mask(crc);
    EXPECT_EQ(crc32c::Unmask(masked), crc);
    EXPECT_NE(masked, crc);  // stored checksums never look like raw CRCs
  }
}

// ---------------------------------------------------------------------------
// Coding (little-endian primitives of the durable layer)
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedWidthRoundTripsLittleEndian) {
  std::string buffer;
  PutFixed32(&buffer, 0x04030201u);
  PutFixed64(&buffer, 0x0807060504030201ull);
  ASSERT_EQ(buffer.size(), 12u);
  // Byte order is part of the on-disk format, not the host's.
  EXPECT_EQ(buffer[0], 0x01);
  EXPECT_EQ(buffer[3], 0x04);
  std::string_view in(buffer);
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0x04030201u);
  EXPECT_EQ(v64, 0x0807060504030201ull);
  EXPECT_TRUE(in.empty());
  EXPECT_FALSE(GetFixed32(&in, &v32));  // truncated: clean refusal
}

TEST(CodingTest, VarintRoundTripsAcrossWidths) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (uint64_t{1} << 32) - 1,
                                  uint64_t{1} << 63, ~uint64_t{0}};
  std::string buffer;
  for (uint64_t v : values) PutVarint64(&buffer, v);
  std::string_view in(buffer);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
  // A lone continuation byte is truncated input, not a value.
  std::string_view torn("\x80", 1);
  uint64_t got = 0;
  EXPECT_FALSE(GetVarint64(&torn, &got));
}

TEST(CodingTest, ZigZagKeepsSmallNegativesShort) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                    int64_t{63}, std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  std::string buffer;
  PutVarint64(&buffer, ZigZagEncode(-1));
  EXPECT_EQ(buffer.size(), 1u);  // -1 must not become ten 0xff bytes
}

TEST(CodingTest, LengthPrefixedHandlesEmbeddedNulAndTruncation) {
  std::string buffer;
  PutLengthPrefixed(&buffer, std::string_view("a\0b", 3));
  PutLengthPrefixed(&buffer, "");
  std::string_view in(buffer);
  std::string_view s;
  ASSERT_TRUE(GetLengthPrefixed(&in, &s));
  EXPECT_EQ(s, std::string_view("a\0b", 3));
  ASSERT_TRUE(GetLengthPrefixed(&in, &s));
  EXPECT_TRUE(s.empty());
  // A length prefix promising more bytes than remain is a clean refusal.
  std::string_view lying("\x05" "ab", 3);
  EXPECT_FALSE(GetLengthPrefixed(&lying, &s));
}

TEST(CodingTest, DoubleRoundTripIsBitIdentical) {
  std::vector<double> values = {0.0, -0.0, 0.1 + 0.2, 1.0, 1e-300,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::denorm_min()};
  for (double v : values) {
    std::string buffer;
    PutDouble(&buffer, v);
    std::string_view in(buffer);
    double got = 0;
    ASSERT_TRUE(GetDouble(&in, &got));
    EXPECT_EQ(std::memcmp(&got, &v, sizeof(double)), 0);
  }
}

// ---------------------------------------------------------------------------
// MemEnv (the hermetic filesystem under every crash test)
// ---------------------------------------------------------------------------

TEST(MemEnvTest, WriteReadRenameRemove) {
  MemEnv env;
  auto file = env.NewWritableFile("/dir/a");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Close().ok());
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString("/dir/a", &contents).ok());
  EXPECT_EQ(contents, "hello world");
  EXPECT_EQ(*env.GetFileSize("/dir/a"), 11u);

  ASSERT_TRUE(env.RenameFile("/dir/a", "/dir/b").ok());
  EXPECT_FALSE(env.FileExists("/dir/a"));
  ASSERT_TRUE(env.ReadFileToString("/dir/b", &contents).ok());
  EXPECT_EQ(contents, "hello world");

  ASSERT_TRUE(env.RemoveFile("/dir/b").ok());
  EXPECT_FALSE(env.FileExists("/dir/b"));
  EXPECT_FALSE(env.ReadFileToString("/dir/b", &contents).ok());
}

TEST(MemEnvTest, NewWritableTruncatesAppendableAppends) {
  MemEnv env;
  env.SetFileContents("/f", "old");
  {
    auto file = env.NewAppendableFile("/f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("+new").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(env.FileContents("/f"), "old+new");
  {
    auto file = env.NewWritableFile("/f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("fresh").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(env.FileContents("/f"), "fresh");
}

TEST(MemEnvTest, RenameReplacesTargetAtomically) {
  MemEnv env;
  env.SetFileContents("/snap.tmp", "new snapshot");
  env.SetFileContents("/snap", "old snapshot");
  ASSERT_TRUE(env.RenameFile("/snap.tmp", "/snap").ok());
  EXPECT_EQ(env.FileContents("/snap"), "new snapshot");
  EXPECT_FALSE(env.FileExists("/snap.tmp"));
}

TEST(MemEnvTest, GetChildrenListsNamesSorted) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing("/data").ok());
  env.SetFileContents("/data/wal-2.log", "");
  env.SetFileContents("/data/snap-1", "");
  env.SetFileContents("/data/wal-1.log", "");
  env.SetFileContents("/other/x", "");
  auto children = env.GetChildren("/data");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"snap-1", "wal-1.log",
                                                 "wal-2.log"}));
}

TEST(MemEnvTest, TruncateCutsATornTail) {
  MemEnv env;
  env.SetFileContents("/wal", "0123456789");
  ASSERT_TRUE(env.TruncateFile("/wal", 4).ok());
  EXPECT_EQ(env.FileContents("/wal"), "0123");
  // Truncating past the end is a no-op, not an extension.
  ASSERT_TRUE(env.TruncateFile("/wal", 100).ok());
  EXPECT_EQ(env.FileContents("/wal"), "0123");
}

TEST(MemEnvTest, JoinPathAddsExactlyOneSeparator) {
  EXPECT_EQ(JoinPath("/data", "wal.log"), "/data/wal.log");
  EXPECT_EQ(JoinPath("/data/", "wal.log"), "/data/wal.log");
}

// ---------------------------------------------------------------------------
// WAL framing (LogWriter / LogReader)
// ---------------------------------------------------------------------------

namespace {
std::string WriteLog(const std::vector<std::string>& records,
                     MemEnv* env = nullptr) {
  MemEnv local;
  MemEnv* e = env != nullptr ? env : &local;
  auto file = e->NewWritableFile("/wal");
  PDB_CHECK(file.ok());
  LogWriter writer(file->get());
  for (const std::string& record : records) {
    PDB_CHECK(writer.AddRecord(record).ok());
  }
  PDB_CHECK((*file)->Close().ok());
  return e->FileContents("/wal");
}

std::vector<std::string> ReadLog(std::string_view contents,
                                 bool* corrupt = nullptr) {
  LogReader reader(contents);
  std::vector<std::string> records;
  std::string record;
  while (reader.ReadRecord(&record)) records.push_back(record);
  if (corrupt != nullptr) *corrupt = reader.corruption_detected();
  return records;
}
}  // namespace

TEST(WalTest, SmallRecordsRoundTripAsFullFrames) {
  std::vector<std::string> records = {"alpha", "", std::string("x\0y", 3),
                                      "last"};
  std::string contents = WriteLog(records);
  // Each fits a block: header + payload per record, all in block 0.
  size_t expected = 0;
  for (const auto& r : records) expected += wal::kHeaderSize + r.size();
  EXPECT_EQ(contents.size(), expected);
  bool corrupt = true;
  EXPECT_EQ(ReadLog(contents, &corrupt), records);
  EXPECT_FALSE(corrupt);
}

TEST(WalTest, LargeRecordFragmentsAcrossBlocks) {
  // > two blocks: must frame as FIRST / MIDDLE+ / LAST.
  std::string big(2 * wal::kBlockSize + 12345, '\0');
  Rng rng(42);
  for (char& c : big) c = static_cast<char>(rng.Uniform(256));
  std::vector<std::string> records = {"head", big, "tail"};
  std::string contents = WriteLog(records);
  EXPECT_GT(contents.size(), 2 * wal::kBlockSize);
  EXPECT_EQ(ReadLog(contents), records);
}

TEST(WalTest, BlockTrailerPadsWhenHeaderCannotFit) {
  // Fill block 0 so that fewer than kHeaderSize bytes remain, forcing the
  // writer to zero-pad and start the next record block-aligned.
  std::string filler(wal::kBlockSize - wal::kHeaderSize - 3, 'f');
  std::vector<std::string> records = {filler, "after the trailer"};
  std::string contents = WriteLog(records);
  ASSERT_GT(contents.size(), wal::kBlockSize);
  // The 3 trailer bytes must be zero.
  for (size_t i = wal::kBlockSize - 3; i < wal::kBlockSize; ++i) {
    EXPECT_EQ(contents[i], '\0') << "trailer byte " << i;
  }
  // The second record starts at the block boundary.
  EXPECT_EQ(static_cast<wal::RecordType>(
                contents[wal::kBlockSize + wal::kHeaderSize - 1]),
            wal::RecordType::kFull);
  EXPECT_EQ(ReadLog(contents), records);
}

TEST(WalTest, ExactBlockBoundaryRecordsRoundTrip) {
  // Payloads engineered so a fragment ends exactly at a block boundary.
  for (size_t delta : {size_t{0}, size_t{1}, wal::kHeaderSize,
                       wal::kHeaderSize + 1}) {
    std::vector<std::string> records = {
        std::string(wal::kBlockSize - wal::kHeaderSize - delta, 'a'), "b"};
    SCOPED_TRACE(delta);
    EXPECT_EQ(ReadLog(WriteLog(records)), records);
  }
}

TEST(WalTest, ReopenedLogAppendsWithCorrectBlockOffset) {
  // Writing more records through a second writer seeded with the current
  // size (the durable layer's reopen path) must yield one coherent log.
  MemEnv env;
  {
    auto file = env.NewWritableFile("/wal");
    ASSERT_TRUE(file.ok());
    LogWriter writer(file->get());
    ASSERT_TRUE(writer.AddRecord(std::string(wal::kBlockSize / 2, 'x')).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  uint64_t size = *env.GetFileSize("/wal");
  {
    auto file = env.NewAppendableFile("/wal");
    ASSERT_TRUE(file.ok());
    LogWriter writer(file->get(), size);
    ASSERT_TRUE(writer.AddRecord(std::string(wal::kBlockSize, 'y')).ok());
    ASSERT_TRUE(writer.AddRecord("z").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(ReadLog(env.FileContents("/wal")),
            (std::vector<std::string>{std::string(wal::kBlockSize / 2, 'x'),
                                      std::string(wal::kBlockSize, 'y'),
                                      "z"}));
}

TEST(WalTest, CorruptChecksumStopsAtFirstDamage) {
  std::vector<std::string> records = {"one", "two", "three"};
  std::string contents = WriteLog(records);
  // Flip a payload byte of the second record.
  size_t pos = wal::kHeaderSize + 3 + wal::kHeaderSize + 1;
  contents[pos] = static_cast<char>(contents[pos] ^ 0x01);
  LogReader reader(contents);
  std::string record;
  ASSERT_TRUE(reader.ReadRecord(&record));
  EXPECT_EQ(record, "one");
  EXPECT_FALSE(reader.ReadRecord(&record));  // stop: no resync past damage
  EXPECT_TRUE(reader.corruption_detected());
  EXPECT_EQ(reader.valid_prefix_size(), wal::kHeaderSize + 3);
}

TEST(WalTest, TornFragmentSequenceYieldsOnlyCompleteRecords) {
  // FIRST without its LAST (crash mid-append of a fragmented record): the
  // complete records before it are returned; the orphan fragment is not.
  std::string big(wal::kBlockSize + 100, 'q');
  std::string contents = WriteLog({"intact", big});
  // Cut inside the big record's LAST fragment.
  std::string torn = contents.substr(0, wal::kBlockSize + 40);
  LogReader reader(torn);
  std::string record;
  ASSERT_TRUE(reader.ReadRecord(&record));
  EXPECT_EQ(record, "intact");
  EXPECT_FALSE(reader.ReadRecord(&record));
  EXPECT_EQ(reader.valid_prefix_size(), wal::kHeaderSize + 6);
}

}  // namespace
}  // namespace pdb
