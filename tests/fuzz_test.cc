// Randomized cross-engine consistency tests ("fuzzing" with a fixed seed
// schedule): random queries over random TIDs, checked across every engine
// that accepts them. Any disagreement is a bug in at least one engine, so
// these tests gate the whole inference stack at once.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "boolean/lineage.h"
#include "storage/coding.h"
#include "storage/durable_db.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "storage/write_batch.h"
#include "kc/obdd.h"
#include "kc/order.h"
#include "kc/trace_compiler.h"
#include "lifted/lifted.h"
#include "logic/parser.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "test_common.h"
#include "util/string_util.h"
#include "wmc/dpll.h"
#include "plans/enumerate.h"
#include "wmc/enumeration.h"

namespace pdb {
namespace {

using testing::RandomCq;
using testing::RandomUcq;

Database RandomDb(Rng* rng) { return testing::RandomVocabularyDb(rng); }

class EngineAgreementFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineAgreementFuzz, AllEnginesAgreeOnRandomUcqs) {
  Rng rng(GetParam() * 2654435761u + 17);
  Database db = RandomDb(&rng);
  for (int round = 0; round < 12; ++round) {
    Ucq ucq = RandomUcq(&rng);
    SCOPED_TRACE(ucq.ToString());
    FormulaManager mgr;
    auto lineage = BuildUcqLineage(ucq, db, &mgr);
    ASSERT_TRUE(lineage.ok());
    // Reference: DPLL (itself validated against enumeration below when
    // small enough).
    DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs));
    auto truth = counter.Compute(lineage->root);
    ASSERT_TRUE(truth.ok());
    if (mgr.VarsOf(lineage->root).size() <= 18) {
      double brute =
          *EnumerateProbability(&mgr, lineage->root, lineage->probs);
      ASSERT_NEAR(*truth, brute, 1e-9);
    }
    // Lifted (when the rules apply).
    auto lifted = LiftedProbability(ucq, db);
    if (lifted.ok()) {
      EXPECT_NEAR(*lifted, *truth, 1e-8);
    } else {
      EXPECT_EQ(lifted.status().code(), StatusCode::kUnsupported);
    }
    // OBDD compilation.
    Obdd obdd(IdentityOrder(lineage->vars.size()));
    auto root = obdd.Compile(&mgr, lineage->root);
    ASSERT_TRUE(root.ok());
    EXPECT_NEAR(obdd.Wmc(*root, WeightsFromProbabilities(lineage->probs)),
                *truth, 1e-8);
    // decision-DNNF trace.
    auto compiled = CompileToDecisionDnnf(
        &mgr, lineage->root, WeightsFromProbabilities(lineage->probs));
    ASSERT_TRUE(compiled.ok());
    EXPECT_NEAR(compiled->probability, *truth, 1e-8);
    EXPECT_TRUE(
        compiled->circuit.ValidateDecisionDnnf(compiled->root).ok());
    EXPECT_NEAR(
        compiled->circuit.Wmc(compiled->root,
                              WeightsFromProbabilities(lineage->probs)),
        *truth, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementFuzz,
                         ::testing::Range<uint64_t>(0, 10));

class AtomOrderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AtomOrderFuzz, ShuffledAtomOrdersAgree) {
  // The compiled grounding engine picks its own join order; permuting the
  // query's written atom order must change neither the match stream
  // (relative to the reference matcher run on the same permutation) nor
  // the query probability.
  Rng rng(GetParam() * 69621 + 13);
  Database db = RandomDb(&rng);
  for (int round = 0; round < 10; ++round) {
    ConjunctiveQuery cq = RandomCq(&rng);
    double first_probability = -1.0;
    std::vector<Atom> atoms = cq.atoms();
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      for (size_t i = atoms.size(); i > 1; --i) {
        std::swap(atoms[i - 1], atoms[rng.Uniform(i)]);
      }
      ConjunctiveQuery permuted(atoms);
      SCOPED_TRACE(permuted.ToString());
      std::vector<std::vector<size_t>> expected, cost_based, syntactic;
      auto collect = [](std::vector<std::vector<size_t>>* out) {
        return [out](const CqMatch& m) {
          std::vector<size_t> rows;
          for (const LineageVar& lv : m.atom_rows) rows.push_back(lv.row);
          out->push_back(std::move(rows));
        };
      };
      ASSERT_TRUE(
          EnumerateCqMatchesReference(permuted, db, collect(&expected))
              .ok());
      GroundingOptions cost_options;
      cost_options.order = AtomOrderPolicy::kCostBased;
      ASSERT_TRUE(EnumerateCqMatches(permuted, db, collect(&cost_based),
                                     cost_options)
                      .ok());
      GroundingOptions syntactic_options;
      syntactic_options.order = AtomOrderPolicy::kSyntactic;
      ASSERT_TRUE(EnumerateCqMatches(permuted, db, collect(&syntactic),
                                     syntactic_options)
                      .ok());
      EXPECT_EQ(cost_based, expected);
      EXPECT_EQ(syntactic, expected);
      // The probability is a property of the query, not of the written
      // atom order (variable numbering differs across permutations, so
      // compare numerically, not structurally).
      FormulaManager mgr;
      auto lineage = BuildUcqLineage(Ucq({permuted}), db, &mgr);
      ASSERT_TRUE(lineage.ok());
      DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs));
      auto p = counter.Compute(lineage->root);
      ASSERT_TRUE(p.ok());
      if (first_probability < 0) {
        first_probability = *p;
      } else {
        EXPECT_NEAR(*p, first_probability, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomOrderFuzz,
                         ::testing::Range<uint64_t>(0, 6));

class UniversalQueryFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniversalQueryFuzz, UnateUniversalSentencesMatchGroundedInference) {
  // Random unate universal sentences forall x forall y (clause of negated
  // S/U atoms and positive R/T atoms), evaluated via the lifted rewrite and
  // via direct lineage.
  Rng rng(GetParam() * 7919 + 3);
  Database db = RandomDb(&rng);
  const char* positive_preds[] = {"R", "T"};
  for (int round = 0; round < 8; ++round) {
    // Build: forall x forall y (S(x,y) => <positive part>), with the
    // positive part a random disjunction over R(x), T(y), U-negations.
    std::vector<FoPtr> disjuncts;
    disjuncts.push_back(
        Fo::Not(Fo::MakeAtom(Atom("S", {Term::Var("x"), Term::Var("y")}))));
    size_t extra = 1 + rng.Uniform(2);
    for (size_t i = 0; i < extra; ++i) {
      const char* pred = positive_preds[rng.Uniform(2)];
      const char* var = rng.Bernoulli(0.5) ? "x" : "y";
      disjuncts.push_back(Fo::MakeAtom(Atom(pred, {Term::Var(var)})));
    }
    FoPtr sentence =
        Fo::Forall("x", Fo::Forall("y", Fo::Or(std::move(disjuncts))));
    SCOPED_TRACE(sentence->ToString());
    FormulaManager mgr;
    auto lineage = BuildLineage(sentence, db, &mgr);
    ASSERT_TRUE(lineage.ok());
    DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs));
    auto truth = counter.Compute(lineage->root);
    ASSERT_TRUE(truth.ok());
    auto lifted = LiftedProbabilityFo(sentence, db);
    if (lifted.ok()) {
      EXPECT_NEAR(*lifted, *truth, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniversalQueryFuzz,
                         ::testing::Range<uint64_t>(0, 6));

class PlanBoundsFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanBoundsFuzz, EveryPlanUpperBoundsEverySelfJoinFreeCq) {
  // Theorem 6.1 as a property: every enumerated plan's value >= truth.
  Rng rng(GetParam() * 104729 + 11);
  Database db = RandomDb(&rng);
  for (int round = 0; round < 8; ++round) {
    ConjunctiveQuery cq = RandomCq(&rng);
    if (!cq.IsSelfJoinFree() || cq.Variables().size() > 4) continue;
    SCOPED_TRACE(cq.ToString());
    FormulaManager mgr;
    auto lineage = BuildUcqLineage(Ucq({cq}), db, &mgr);
    ASSERT_TRUE(lineage.ok());
    DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs));
    double truth = *counter.Compute(lineage->root);
    // Include via plans/enumerate.h — pulled through test target deps.
    auto plans = EnumerateAllPlans(cq);
    ASSERT_TRUE(plans.ok());
    for (const PlanPtr& plan : *plans) {
      auto value = ExecuteBooleanPlan(plan, db);
      ASSERT_TRUE(value.ok());
      EXPECT_GE(*value, truth - 1e-9) << plan->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanBoundsFuzz,
                         ::testing::Range<uint64_t>(0, 6));

class ComponentDecompositionFuzz : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ComponentDecompositionFuzz, PlantedDisjointBlocksSplitAsExpected) {
  // Random conjunctions with planted variable-disjoint blocks. Each block
  // is a single clause (disjunction of literals) over its own private
  // variables, so cofactoring inside a block never creates a new
  // conjunction: the counter splits the planted top-level conjunction
  // once and then each clause into its literals, so `component_splits`
  // must be exactly 1 + num_blocks, with no decision at all.
  Rng rng(GetParam() * 48271 + 7);
  for (int round = 0; round < 20; ++round) {
    size_t num_blocks = 2 + rng.Uniform(4);  // >= 2: a real split
    FormulaManager mgr;
    std::vector<double> probs;
    std::vector<NodeId> blocks;
    for (size_t b = 0; b < num_blocks; ++b) {
      size_t width = 2 + rng.Uniform(4);
      std::vector<NodeId> literals;
      for (size_t i = 0; i < width; ++i) {
        VarId v = static_cast<VarId>(probs.size());
        probs.push_back(rng.NextDouble());
        NodeId lit = mgr.Var(v);
        if (rng.Bernoulli(0.4)) lit = mgr.Not(lit);
        literals.push_back(lit);
      }
      blocks.push_back(mgr.Or(std::move(literals)));
    }
    NodeId root = mgr.And(blocks);
    SCOPED_TRACE(StrFormat("blocks=%zu vars=%zu", num_blocks, probs.size()));

    // Reference: components disabled.
    DpllOptions no_components;
    no_components.use_components = false;
    DpllCounter flat(&mgr, WeightsFromProbabilities(probs), no_components);
    auto flat_value = flat.Compute(root);
    ASSERT_TRUE(flat_value.ok());
    EXPECT_EQ(flat.stats().component_splits, 0u);

    // Components on: the planted split and one per clause.
    DpllCounter split(&mgr, WeightsFromProbabilities(probs));
    auto split_value = split.Compute(root);
    ASSERT_TRUE(split_value.ok());
    EXPECT_EQ(split.stats().component_splits, 1 + num_blocks);
    EXPECT_EQ(split.stats().decisions, 0u);
    EXPECT_NEAR(*split_value, *flat_value, 1e-12);

    // Ground truth when small enough to enumerate.
    if (probs.size() <= 18) {
      EXPECT_NEAR(*EnumerateProbability(&mgr, root, probs), *split_value,
                  1e-12);
    }
  }
}

TEST_P(ComponentDecompositionFuzz, PlantedDisjointDisjunctsSplitAsExpected) {
  // The dual: random disjunctions of planted variable-disjoint blocks.
  // Each block is a connected two-term DNF over its own private
  // variables, (a & b) | (b & c) with random polarities, so no block
  // splits until its shared variable b is decided. The counter splits the
  // planted top-level disjunction once, decides b in each block, and
  // splits the one cofactor that is a disjunction of two independent
  // literals: 1 + num_blocks splits and num_blocks decisions.
  Rng rng(GetParam() * 69621 + 11);
  for (int round = 0; round < 20; ++round) {
    size_t num_blocks = 2 + rng.Uniform(4);
    FormulaManager mgr;
    std::vector<double> probs;
    std::vector<NodeId> blocks;
    auto literal = [&](VarId v) {
      NodeId lit = mgr.Var(v);
      return rng.Bernoulli(0.4) ? mgr.Not(lit) : lit;
    };
    for (size_t b = 0; b < num_blocks; ++b) {
      const VarId first = static_cast<VarId>(probs.size());
      for (int i = 0; i < 3; ++i) probs.push_back(rng.NextDouble());
      NodeId shared = literal(first + 1);
      blocks.push_back(mgr.Or(mgr.And(literal(first), shared),
                              mgr.And(shared, literal(first + 2))));
    }
    NodeId root = mgr.Or(blocks);
    SCOPED_TRACE(StrFormat("blocks=%zu: %s", num_blocks,
                           mgr.ToString(root).c_str()));

    DpllOptions no_components;
    no_components.use_components = false;
    DpllCounter flat(&mgr, WeightsFromProbabilities(probs), no_components);
    auto flat_value = flat.Compute(root);
    ASSERT_TRUE(flat_value.ok());
    EXPECT_EQ(flat.stats().component_splits, 0u);

    DpllCounter split(&mgr, WeightsFromProbabilities(probs));
    auto split_value = split.Compute(root);
    ASSERT_TRUE(split_value.ok());
    EXPECT_EQ(split.stats().component_splits, 1 + num_blocks);
    EXPECT_EQ(split.stats().decisions, num_blocks);
    EXPECT_NEAR(*split_value, *flat_value, 1e-12);
    EXPECT_NEAR(*EnumerateProbability(&mgr, root, probs), *split_value,
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentDecompositionFuzz,
                         ::testing::Range<uint64_t>(0, 6));

// ---------------------------------------------------------------------
// WAL reader robustness: arbitrary corruption, truncation, and bit flips
// must yield a clean stop on a (possibly shorter) valid prefix of the
// written records — never a crash, a hang, or a fabricated record.

/// Writes `records` through a LogWriter and returns the raw log bytes.
std::string BuildLog(const std::vector<std::string>& records) {
  MemEnv env;
  auto file = env.NewWritableFile("/log");
  PDB_CHECK(file.ok());
  LogWriter writer(file->get());
  for (const std::string& record : records) {
    PDB_CHECK(writer.AddRecord(record).ok());
  }
  PDB_CHECK((*file)->Close().ok());
  return env.FileContents("/log");
}

/// The invariant every damaged log must satisfy: the reader returns an
/// exact prefix of the original records, and truncating the file at
/// `valid_prefix_size()` yields a clean log with that same prefix — which
/// is precisely what crash recovery does to a torn WAL tail.
void ExpectValidPrefix(std::string_view damaged,
                       const std::vector<std::string>& originals) {
  LogReader reader(damaged);
  std::vector<std::string> records;
  std::string record;
  size_t bound = damaged.size() + 16;
  while (records.size() < bound && reader.ReadRecord(&record)) {
    records.push_back(record);
  }
  ASSERT_LT(records.size(), bound) << "reader failed to terminate";
  ASSERT_LE(records.size(), originals.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i], originals[i]) << "record " << i << " not a prefix";
  }
  ASSERT_LE(reader.valid_prefix_size(), damaged.size());
  LogReader clean(damaged.substr(0, reader.valid_prefix_size()));
  std::vector<std::string> reread;
  while (clean.ReadRecord(&record)) reread.push_back(record);
  EXPECT_EQ(reread, records)
      << "truncation at valid_prefix_size() is not a clean log";
  EXPECT_FALSE(clean.corruption_detected());
}

class WalReaderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalReaderFuzz, CleanLogRoundTrips) {
  Rng rng(GetParam() * 2862933555777941757ULL + 3037000493ULL);
  std::vector<std::string> records;
  size_t count = 1 + rng.Uniform(16);
  for (size_t i = 0; i < count; ++i) {
    // Mostly small records; occasionally spanning fragments (> one block)
    // or empty, to exercise FULL and FIRST/MIDDLE/LAST framing plus block
    // trailers.
    size_t size;
    uint64_t roll = rng.Uniform(10);
    if (roll == 0) {
      size = wal::kBlockSize + rng.Uniform(2 * wal::kBlockSize);
    } else if (roll == 1) {
      size = 0;
    } else {
      size = rng.Uniform(300);
    }
    std::string record(size, '\0');
    for (char& c : record) c = static_cast<char>(rng.Uniform(256));
    records.push_back(std::move(record));
  }
  std::string contents = BuildLog(records);

  LogReader reader(contents);
  std::vector<std::string> got;
  std::string record;
  while (reader.ReadRecord(&record)) got.push_back(record);
  EXPECT_EQ(got, records);
  EXPECT_FALSE(reader.corruption_detected());
  EXPECT_EQ(reader.valid_prefix_size(), contents.size());
}

TEST_P(WalReaderFuzz, TruncationYieldsAValidPrefix) {
  Rng rng(GetParam() * 6364136223846793005ULL + 1442695040888963407ULL);
  std::vector<std::string> records;
  size_t count = 2 + rng.Uniform(10);
  for (size_t i = 0; i < count; ++i) {
    size_t size = rng.Bernoulli(0.15)
                      ? wal::kBlockSize + rng.Uniform(wal::kBlockSize)
                      : rng.Uniform(200);
    std::string record(size, '\0');
    for (char& c : record) c = static_cast<char>(rng.Uniform(256));
    records.push_back(std::move(record));
  }
  std::string contents = BuildLog(records);

  // Every short length near record boundaries, plus a random sample of
  // arbitrary cuts (cutting at every single byte of a multi-block log is
  // needlessly slow).
  std::vector<size_t> cuts = {0, 1, wal::kHeaderSize - 1, wal::kHeaderSize};
  for (int i = 0; i < 64; ++i) cuts.push_back(rng.Uniform(contents.size()));
  for (size_t cut : cuts) {
    if (cut > contents.size()) continue;
    SCOPED_TRACE(StrFormat("truncated to %zu of %zu bytes", cut,
                           contents.size()));
    ExpectValidPrefix(std::string_view(contents).substr(0, cut), records);
  }
}

TEST_P(WalReaderFuzz, BitFlipsNeverFabricateRecords) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 99);
  std::vector<std::string> records;
  size_t count = 2 + rng.Uniform(10);
  for (size_t i = 0; i < count; ++i) {
    size_t size = rng.Bernoulli(0.1)
                      ? wal::kBlockSize + rng.Uniform(wal::kBlockSize)
                      : rng.Uniform(200);
    std::string record(size, '\0');
    for (char& c : record) c = static_cast<char>(rng.Uniform(256));
    records.push_back(std::move(record));
  }
  const std::string contents = BuildLog(records);

  for (int trial = 0; trial < 32; ++trial) {
    std::string damaged = contents;
    // One to four independent single-bit flips anywhere in the file.
    size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(damaged.size());
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1u << rng.Uniform(8)));
    }
    SCOPED_TRACE(StrFormat("trial %d", trial));
    ExpectValidPrefix(damaged, records);
  }
}

TEST_P(WalReaderFuzz, ArbitraryGarbageNeverCrashesTheReader) {
  Rng rng(GetParam() * 1181783497276652981ULL + 7);
  for (int trial = 0; trial < 16; ++trial) {
    size_t size = rng.Uniform(3 * wal::kBlockSize);
    std::string garbage(size, '\0');
    // Mix of pure noise, zero runs (preallocated-file tails), and noise
    // with plausible type bytes sprinkled in.
    uint64_t flavor = rng.Uniform(3);
    if (flavor != 1) {
      for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
    }
    if (flavor == 2) {
      for (size_t i = 6; i < garbage.size(); i += wal::kHeaderSize) {
        garbage[i] = static_cast<char>(1 + rng.Uniform(4));
      }
    }
    LogReader reader(garbage);
    std::string record;
    size_t bound = garbage.size() + 16;
    size_t reads = 0;
    while (reads < bound && reader.ReadRecord(&record)) ++reads;
    EXPECT_LT(reads, bound) << "reader failed to terminate on garbage";
    EXPECT_LE(reader.valid_prefix_size(), garbage.size());
    // Whatever it salvaged, the truncate-and-reread recovery step must be
    // stable: the valid prefix is a clean log.
    LogReader clean(
        std::string_view(garbage).substr(0, reader.valid_prefix_size()));
    size_t reread = 0;
    while (reread < bound && clean.ReadRecord(&record)) ++reread;
    EXPECT_EQ(reread, reads);
    EXPECT_FALSE(clean.corruption_detected());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalReaderFuzz,
                         ::testing::Range<uint64_t>(0, 12));

// ---------------------------------------------------------------------
// WriteBatch record robustness: one level above log framing. A
// CRC-valid record whose *payload* is a malformed batch (truncated op
// list, inflated count, unknown op byte, trailing garbage) must be
// treated as damage — recovery keeps everything before it, applies NONE
// of the batch's mutations (never a prefix), drops the untrusted
// suffix, and leaves a writable database.

/// Record payloads of the single WAL segment under `dir`, in log order.
std::vector<std::string> WalRecords(MemEnv* env, const std::string& dir) {
  auto children = env->GetChildren(dir);
  PDB_CHECK(children.ok());
  std::string wal_name;
  for (const std::string& name : *children) {
    if (name.rfind("wal-", 0) == 0) {
      PDB_CHECK(wal_name.empty());  // the builder ran without checkpoints
      wal_name = name;
    }
  }
  PDB_CHECK(!wal_name.empty());
  const std::string contents = env->FileContents(dir + "/" + wal_name);
  LogReader reader(contents);
  std::vector<std::string> records;
  std::string record;
  while (reader.ReadRecord(&record)) records.push_back(record);
  PDB_CHECK(!reader.corruption_detected());
  return records;
}

class BatchRecordFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchRecordFuzz, MalformedBatchPayloadsNeverApplyPartially) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 0xd1342543de82ef95ULL + 29);

  // Build a genuine WAL: create + single insert (seqs 1-2), one batch of
  // three (seqs 3-5), then a post-batch insert (seq 6) that must vanish
  // with the untrusted suffix once the batch record is damaged.
  MemEnv source;
  {
    DurableOptions options;
    options.env = &source;
    auto db = DurableDatabase::Open("/src", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(
        (*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
    ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{1})}, 0.5).ok());
    ASSERT_TRUE((*db)->InsertMany("R", {{{Value(int64_t{10})}, 0.5},
                                        {{Value(int64_t{11})}, 0.5},
                                        {{Value(int64_t{12})}, 0.5}})
                    .ok());
    ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{2})}, 0.5).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::vector<std::string> records = WalRecords(&source, "/src");
  // Locate the batch record (varint seq, then the op byte).
  size_t batch_index = records.size();
  for (size_t i = 0; i < records.size(); ++i) {
    std::string_view in(records[i]);
    uint64_t seq = 0;
    ASSERT_TRUE(GetVarint64(&in, &seq));
    ASSERT_FALSE(in.empty());
    if (static_cast<uint8_t>(in.front()) == kWalOpWriteBatch) {
      batch_index = i;
      break;
    }
  }
  ASSERT_LT(batch_index, records.size());
  const std::string& batch = records[batch_index];
  const size_t header = batch.size() - [&] {
    std::string_view in(batch);
    uint64_t seq = 0;
    GetVarint64(&in, &seq);
    return in.size() - 1;  // past the op byte
  }();

  // One corruption per seed round: all CRC-valid, all malformed payloads.
  std::vector<std::string> mutants;
  mutants.push_back(batch.substr(0, header));  // empty batch body
  mutants.push_back(                           // truncated mid-op
      batch.substr(0, header + 1 + rng.Uniform(batch.size() - header - 1)));
  mutants.push_back(batch + "garbage");        // trailing bytes
  {
    std::string inflated = batch;
    inflated[header] = static_cast<char>(inflated[header] + 1);  // count+1
    mutants.push_back(std::move(inflated));
  }
  {
    std::string bad_op = batch;
    bad_op[header + 1] = '\x7f';  // first op's code byte: unknown op
    mutants.push_back(std::move(bad_op));
  }
  {
    std::string flipped = batch;  // random payload bit flip
    size_t pos = header + rng.Uniform(flipped.size() - header);
    flipped[pos] =
        static_cast<char>(flipped[pos] ^ (1u << rng.Uniform(8)));
    mutants.push_back(std::move(flipped));
  }

  for (size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE(StrFormat("mutant %zu (seed %llu)", m,
                           static_cast<unsigned long long>(seed)));
    // Re-frame the records with the damaged batch into a fresh WAL.
    MemEnv env;
    ASSERT_TRUE(env.CreateDirIfMissing("/db").ok());
    auto file = env.NewWritableFile("/db/wal-00000000000000000001.log");
    ASSERT_TRUE(file.ok());
    {
      LogWriter writer(file->get());
      for (size_t i = 0; i < records.size(); ++i) {
        ASSERT_TRUE(
            writer.AddRecord(i == batch_index ? mutants[m] : records[i])
                .ok());
      }
      ASSERT_TRUE((*file)->Close().ok());
    }

    DurableOptions options;
    options.env = &env;
    auto db = DurableDatabase::Open("/db", options);
    ASSERT_TRUE(db.ok())
        << "recovery must not fail on a malformed batch record: "
        << db.status().ToString();
    const Relation& rel = **(*db)->pdb().database().Get("R");
    if ((*db)->last_seq() == 6u) {
      // A random bit flip may leave a decodable, valid batch (e.g. a
      // flipped probability bit): then everything replays.
      ASSERT_EQ(m, mutants.size() - 1);
      EXPECT_EQ(rel.size(), 5u);
      continue;
    }
    // Damage detected: exactly the pre-batch prefix, none of the batch,
    // and not the post-batch insert either.
    EXPECT_EQ((*db)->last_seq(), 2u);
    EXPECT_EQ(rel.size(), 1u);
    EXPECT_TRUE(rel.Contains({Value(int64_t{1})}));
    EXPECT_FALSE(rel.Contains({Value(int64_t{10})}));
    EXPECT_FALSE(rel.Contains({Value(int64_t{11})}));
    EXPECT_FALSE(rel.Contains({Value(int64_t{12})}));
    EXPECT_FALSE(rel.Contains({Value(int64_t{2})}));
    EXPECT_TRUE((*db)->recovery_stats().tail_truncated);
    // The recovered handle accepts new writes on a clean tail.
    EXPECT_TRUE((*db)->Insert("R", {Value(int64_t{99})}, 0.5).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchRecordFuzz,
                         ::testing::Range<uint64_t>(0, 8));

// ---------------------------------------------------------------------
// Observability JSON readers: TraceFromJson and SlowQueryEntryFromJson are
// strict parsers over operator-controlled input (/debug payloads, log
// files). Any truncation, bit flip, or garbage must produce a clean
// InvalidArgument — never a crash or a hang — and well-formed documents
// must round-trip byte-identically.

/// A representative trace document with every shape the writer emits:
/// multiple spans, empty and multi-entry counter lists, escaped names.
std::string BuildTraceJson(Rng* rng) {
  TraceData data;
  data.total_ns = rng->Uniform(1'000'000'000);
  size_t spans = rng->Uniform(6);
  for (size_t i = 0; i < spans; ++i) {
    QueryTrace::Span span;
    span.phase = static_cast<TracePhase>(rng->Uniform(kNumTracePhases));
    span.start_ns = rng->Uniform(1'000'000);
    span.duration_ns = rng->Uniform(1'000'000);
    size_t counters = rng->Uniform(3);
    for (size_t c = 0; c < counters; ++c) {
      std::string name;
      size_t len = 1 + rng->Uniform(8);
      for (size_t k = 0; k < len; ++k) {
        name.push_back(static_cast<char>(rng->Uniform(256)));
      }
      span.counters.push_back({std::move(name), rng->Uniform(1u << 30)});
    }
    data.spans.push_back(std::move(span));
  }
  return data.ToJson();
}

std::string BuildSlowEntryJson(Rng* rng) {
  SlowQueryEntry entry;
  entry.ts_us = rng->Uniform(1u << 30);
  entry.latency_us = rng->Uniform(1u << 20);
  auto random_text = [&](size_t max_len) {
    std::string s;
    size_t len = rng->Uniform(max_len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng->Uniform(256)));
    }
    return s;
  };
  entry.client = random_text(12);
  entry.method = random_text(12);
  entry.statement = random_text(40);
  if (rng->Bernoulli(0.6)) entry.trace_json = BuildTraceJson(rng);
  return SlowQueryEntryToJson(entry);
}

class ObsJsonFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObsJsonFuzz, WellFormedDocumentsRoundTrip) {
  Rng rng(GetParam() * 0x2545F4914F6CDD1DULL + 21);
  for (int trial = 0; trial < 16; ++trial) {
    std::string trace_json = BuildTraceJson(&rng);
    auto trace = TraceFromJson(trace_json);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_EQ(trace->ToJson(), trace_json);

    std::string entry_json = BuildSlowEntryJson(&rng);
    auto entry = SlowQueryEntryFromJson(entry_json);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    EXPECT_EQ(SlowQueryEntryToJson(*entry), entry_json);
  }
}

TEST_P(ObsJsonFuzz, TruncationIsRejectedNeverACrash) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 5);
  std::string trace_json = BuildTraceJson(&rng);
  std::string entry_json = BuildSlowEntryJson(&rng);
  for (size_t cut = 0; cut < trace_json.size(); ++cut) {
    EXPECT_FALSE(TraceFromJson(trace_json.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  for (size_t cut = 0; cut < entry_json.size(); ++cut) {
    EXPECT_FALSE(SlowQueryEntryFromJson(entry_json.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST_P(ObsJsonFuzz, MutatedDocumentsNeverCrashAndStableWhenAccepted) {
  Rng rng(GetParam() * 6364136223846793005ULL + 31);
  for (int trial = 0; trial < 24; ++trial) {
    std::string doc =
        rng.Bernoulli(0.5) ? BuildTraceJson(&rng) : BuildSlowEntryJson(&rng);
    size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      if (doc.empty()) break;
      size_t pos = rng.Uniform(doc.size());
      switch (rng.Uniform(3)) {
        case 0:
          doc[pos] = static_cast<char>(doc[pos] ^ (1u << rng.Uniform(8)));
          break;
        case 1:
          doc.erase(pos, 1);
          break;
        default:
          doc.insert(pos, 1, static_cast<char>(rng.Uniform(256)));
          break;
      }
    }
    // Either parser may accept or reject the mutant; if accepted, the
    // re-serialization must itself parse (no half-valid states escape).
    auto trace = TraceFromJson(doc);
    if (trace.ok()) {
      EXPECT_TRUE(TraceFromJson(trace->ToJson()).ok());
    }
    auto entry = SlowQueryEntryFromJson(doc);
    if (entry.ok()) {
      EXPECT_TRUE(
          SlowQueryEntryFromJson(SlowQueryEntryToJson(*entry)).ok());
    }
  }
}

TEST_P(ObsJsonFuzz, ArbitraryGarbageIsRejected) {
  Rng rng(GetParam() * 1181783497276652981ULL + 13);
  for (int trial = 0; trial < 24; ++trial) {
    size_t size = rng.Uniform(512);
    std::string garbage(size, '\0');
    uint64_t flavor = rng.Uniform(3);
    for (char& c : garbage) {
      c = flavor == 0
              ? static_cast<char>(rng.Uniform(256))
              : static_cast<char>("{}[]\",:0123456789"[rng.Uniform(17)]);
    }
    // Must terminate and must not crash; acceptance of pure garbage is
    // effectively impossible for these fixed-key-order grammars.
    (void)TraceFromJson(garbage);
    (void)SlowQueryEntryFromJson(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsJsonFuzz,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace pdb
