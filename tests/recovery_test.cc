// Crash-recovery differential tests: randomized workloads against
// DurableDatabase, killed deterministically at every single I/O operation
// via FaultInjectionEnv, then recovered and compared — structurally and by
// query answers — against an in-memory oracle holding exactly the
// acknowledged-synced prefix of the workload.
//
// The durability contract under test (storage/durable_db.h):
//  - SyncMode::kAlways + a clean crash (unsynced data lost whole): the
//    recovered database equals the oracle at last_synced_seq() exactly;
//  - a torn crash (an arbitrary prefix of unsynced bytes survives): the
//    recovered database equals the oracle at some seq >= last_synced_seq()
//    — never less (acknowledged-synced writes are never lost), and never a
//    state that was not a prefix of the submitted operations;
//  - recovery never fails on legitimately crashed state (Open always
//    succeeds after a crash, truncating torn tails).

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "fault_env.h"
#include "storage/durable_db.h"
#include "storage/write_batch.h"
#include "test_common.h"
#include "util/random.h"
#include "util/string_util.h"

namespace pdb {
namespace {

using testing::FaultInjectionEnv;
using testing::RandomUcq;

// ---------------------------------------------------------------------
// Workload model: a deterministic op list derived from a seed.

struct WorkloadOp {
  enum Kind { kCreate, kInsert, kCheckpoint, kBatch } kind = kInsert;
  std::string relation;
  size_t arity = 1;
  Tuple tuple;
  double prob = 1.0;
  // kBatch: the staged mutations (kCreate / kInsert only), committed
  // atomically through ApplyBatch — one WAL record, all-or-nothing.
  std::vector<WorkloadOp> batch_ops;
};

std::vector<WorkloadOp> MakeWorkload(uint64_t seed, size_t num_ops) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const struct {
    const char* name;
    size_t arity;
  } vocab[] = {{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}};
  std::vector<WorkloadOp> ops;
  // Create two relations up front so early inserts have a target.
  for (size_t i = 0; i < 2; ++i) {
    WorkloadOp op;
    op.kind = WorkloadOp::kCreate;
    op.relation = vocab[i].name;
    op.arity = vocab[i].arity;
    ops.push_back(op);
  }
  auto random_insert = [&](WorkloadOp* op) {
    op->kind = WorkloadOp::kInsert;
    size_t v = rng.Uniform(4);
    op->relation = vocab[v].name;
    op->arity = vocab[v].arity;
    for (size_t c = 0; c < vocab[v].arity; ++c) {
      op->tuple.emplace_back(static_cast<int64_t>(1 + rng.Uniform(3)));
    }
    op->prob = rng.Bernoulli(0.1) ? (rng.Bernoulli(0.5) ? 0.0 : 1.0)
                                  : rng.NextDouble();
  };
  while (ops.size() < num_ops) {
    WorkloadOp op;
    uint64_t roll = rng.Uniform(100);
    if (roll < 10) {
      op.kind = WorkloadOp::kCreate;
      size_t v = rng.Uniform(4);
      op.relation = vocab[v].name;
      op.arity = vocab[v].arity;
    } else if (roll < 15) {
      op.kind = WorkloadOp::kCheckpoint;
    } else if (roll < 35) {
      // Atomic batches, 2–5 mutations, occasionally leading with a DDL
      // create so replay must honor the in-batch catalog change. The tiny
      // value domain makes in-batch and cross-batch duplicates (which
      // reject the WHOLE batch) routine.
      op.kind = WorkloadOp::kBatch;
      size_t n = 2 + rng.Uniform(4);
      if (rng.Bernoulli(0.25)) {
        WorkloadOp create;
        create.kind = WorkloadOp::kCreate;
        size_t v = rng.Uniform(4);
        create.relation = vocab[v].name;
        create.arity = vocab[v].arity;
        op.batch_ops.push_back(std::move(create));
      }
      while (op.batch_ops.size() < n) {
        WorkloadOp row;
        random_insert(&row);
        op.batch_ops.push_back(std::move(row));
      }
    } else {
      random_insert(&op);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// Applies one op to a plain in-memory Database with the same validation
// rules as DurableDatabase; returns true when the op would be logged
// (i.e. consumes a sequence number).
bool OracleApply(Database* db, const WorkloadOp& op) {
  switch (op.kind) {
    case WorkloadOp::kCreate: {
      if (db->HasRelation(op.relation)) return false;
      return db
          ->AddRelation(
              Relation(op.relation, Schema::Anonymous(op.arity)))
          .ok();
    }
    case WorkloadOp::kInsert: {
      auto rel = db->GetMutable(op.relation);
      if (!rel.ok()) return false;
      return (*rel)->AddTuple(op.tuple, op.prob).ok();
    }
    case WorkloadOp::kCheckpoint:
      return false;  // no state change, no sequence number
    case WorkloadOp::kBatch:
      return false;  // handled by OracleApplyBatch (atomic, multi-seq)
  }
  return false;
}

// Atomic-batch oracle: mirrors DurableDatabase::ApplyBatch — the whole
// batch is validated against a trial copy first; any invalid op rejects
// everything (no state change, no sequence numbers). On success every
// mutation applies in order. Returns the per-mutation intermediate states
// appended (empty when rejected); only the LAST of those is a state
// recovery may ever observe, since a batch replays all-or-nothing.
std::vector<Database> OracleApplyBatch(Database* db, const WorkloadOp& op) {
  Database trial(*db);
  for (const WorkloadOp& sub : op.batch_ops) {
    if (!OracleApply(&trial, sub)) return {};
  }
  std::vector<Database> intermediates;
  for (const WorkloadOp& sub : op.batch_ops) {
    PDB_CHECK(OracleApply(db, sub));
    intermediates.push_back(*db);
  }
  return intermediates;
}

// Runs one op against the durable database (errors expected under crash
// injection are fine — the caller tracks progress via sequence numbers).
void DurableApply(DurableDatabase* db, const WorkloadOp& op) {
  switch (op.kind) {
    case WorkloadOp::kCreate:
      db->CreateRelation(op.relation, Schema::Anonymous(op.arity))
          .ok();  // may legitimately fail (duplicate, injected fault)
      break;
    case WorkloadOp::kInsert:
      db->Insert(op.relation, op.tuple, op.prob).ok();
      break;
    case WorkloadOp::kCheckpoint:
      db->Checkpoint().ok();
      break;
    case WorkloadOp::kBatch: {
      WriteBatch batch;
      for (const WorkloadOp& sub : op.batch_ops) {
        if (sub.kind == WorkloadOp::kCreate) {
          batch.CreateRelation(sub.relation, Schema::Anonymous(sub.arity));
        } else {
          batch.Insert(sub.relation, sub.tuple, sub.prob);
        }
      }
      db->ApplyBatch(&batch).ok();  // rejection/fault are fine
      break;
    }
  }
}

// states[j] = the database after the first j *logged* mutations;
// states[0] is empty. boundary[j] marks the seqs recovery may legally
// land on: mid-batch seqs are NOT boundaries — a WriteBatch record
// replays whole or not at all, so observing one is an atomicity bug.
struct Oracle {
  std::vector<Database> states;
  std::vector<bool> boundary;
};

Oracle OracleStates(const std::vector<WorkloadOp>& ops) {
  Oracle oracle;
  oracle.states.emplace_back();
  oracle.boundary.push_back(true);
  Database current;
  for (const WorkloadOp& op : ops) {
    if (op.kind == WorkloadOp::kBatch) {
      std::vector<Database> mid = OracleApplyBatch(&current, op);
      for (size_t i = 0; i < mid.size(); ++i) {
        oracle.states.push_back(std::move(mid[i]));
        oracle.boundary.push_back(i + 1 == mid.size());
      }
    } else if (OracleApply(&current, op)) {
      oracle.states.push_back(current);
      oracle.boundary.push_back(true);
    }
  }
  return oracle;
}

// Structural, bit-exact equality: names, schemas, rows, probabilities.
::testing::AssertionResult DatabasesEqual(const Database& got,
                                          const Database& want) {
  auto got_names = got.RelationNames();
  auto want_names = want.RelationNames();
  if (got_names != want_names) {
    return ::testing::AssertionFailure()
           << "relation sets differ: got " << got_names.size() << ", want "
           << want_names.size();
  }
  for (const std::string& name : want_names) {
    const Relation& g = **got.Get(name);
    const Relation& w = **want.Get(name);
    if (!(g.schema() == w.schema())) {
      return ::testing::AssertionFailure() << name << ": schemas differ";
    }
    if (g.size() != w.size()) {
      return ::testing::AssertionFailure()
             << name << ": row counts differ: got " << g.size() << ", want "
             << w.size();
    }
    for (size_t i = 0; i < w.size(); ++i) {
      if (g.tuple(i) != w.tuple(i)) {
        return ::testing::AssertionFailure()
               << name << " row " << i << ": tuples differ";
      }
      if (std::memcmp(&g.probs()[i], &w.probs()[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << name << " row " << i << ": probabilities differ ("
               << g.prob(i) << " vs " << w.prob(i) << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Bit-identical query answers on the recovered database vs the oracle.
void ExpectSameAnswers(uint64_t seed, const Database& recovered,
                       const Database& oracle) {
  ProbDatabase got{Database(recovered)};
  ProbDatabase want{Database(oracle)};
  QueryOptions options;
  options.exec.num_threads = 1;
  Rng rng(seed ^ 0xABCDEF);
  for (int q = 0; q < 3; ++q) {
    Ucq ucq = RandomUcq(&rng);
    std::string text = ucq.ToString();
    auto a = got.Query(text, options);
    auto b = want.Query(text, options);
    ASSERT_EQ(a.ok(), b.ok()) << text;
    if (a.ok()) {
      EXPECT_EQ(a->probability, b->probability) << text;
      EXPECT_EQ(a->exact, b->exact) << text;
    }
  }
}

DurableOptions Options(Env* env, uint64_t checkpoint_every_n = 0) {
  DurableOptions options;
  options.env = env;
  options.sync_mode = SyncMode::kAlways;
  options.checkpoint_every_n = checkpoint_every_n;
  return options;
}

// ---------------------------------------------------------------------
// The differential crash suite.

class RecoveryCrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryCrashFuzz, EveryCrashPointRecoversTheSyncedPrefix) {
  const uint64_t seed = GetParam();
  const size_t num_ops = 10 + seed % 7;
  // Some seeds run with aggressive auto-checkpointing so crash points land
  // inside snapshot writes, renames, WAL rolls, and old-file deletion.
  const uint64_t checkpoint_every = (seed % 3 == 0) ? 4 : 0;
  std::vector<WorkloadOp> ops = MakeWorkload(seed, num_ops);
  Oracle oracle = OracleStates(ops);
  const std::vector<Database>& states = oracle.states;

  // Dry run: count the workload's I/O operations (open + ops + close).
  uint64_t total_io = 0;
  {
    MemEnv mem;
    FaultInjectionEnv fault(&mem);
    auto db = DurableDatabase::Open("/db", Options(&fault, checkpoint_every));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const WorkloadOp& op : ops) DurableApply(db->get(), op);
    ASSERT_TRUE((*db)->Close().ok());
    // Sanity: the full run must land exactly on the final oracle state.
    ASSERT_TRUE(DatabasesEqual((*db)->pdb().database(), states.back()));
    ASSERT_EQ((*db)->last_seq(), states.size() - 1);
    total_io = fault.ops();
  }
  ASSERT_GT(total_io, 0u);

  // Crash at every single I/O point.
  for (uint64_t crash = 0; crash < total_io; ++crash) {
    SCOPED_TRACE(StrFormat("crash at I/O op %llu of %llu",
                           static_cast<unsigned long long>(crash),
                           static_cast<unsigned long long>(total_io)));
    MemEnv mem;
    FaultInjectionEnv fault(&mem);
    uint64_t synced_seq = 0;
    {
      fault.CrashAfter(crash);
      auto db = DurableDatabase::Open("/db",
                                      Options(&fault, checkpoint_every));
      if (db.ok()) {
        for (const WorkloadOp& op : ops) DurableApply(db->get(), op);
        synced_seq = (*db)->last_synced_seq();
        // Do NOT Close(): the process just died.
      }
      // Open itself failing at this crash point means no op was ever
      // acknowledged: synced_seq stays 0 and recovery must yield the
      // empty database (or whatever the injected-crash open left — which
      // is nothing, since the first synced write happens after open).
    }
    // The crash: everything unsynced is gone.
    fault.DropUnsyncedData();
    fault.ClearFaults();

    auto reopened = DurableDatabase::Open("/db",
                                          Options(&fault, checkpoint_every));
    ASSERT_TRUE(reopened.ok())
        << "recovery must never fail on crashed state: "
        << reopened.status().ToString();
    ASSERT_LT(synced_seq, states.size());
    ASSERT_TRUE(oracle.boundary[synced_seq])
        << "acknowledged seq " << synced_seq
        << " lands mid-batch: an ApplyBatch ack was not atomic";
    EXPECT_TRUE(
        DatabasesEqual((*reopened)->pdb().database(), states[synced_seq]))
        << "recovered state != oracle at synced seq " << synced_seq;
    EXPECT_EQ((*reopened)->last_seq(), synced_seq);

    // Differential queries on a sample of crash points (full structural
    // equality already ran on every point; queries are the expensive bit).
    if (crash % 17 == 0 || crash + 1 == total_io) {
      ExpectSameAnswers(seed, (*reopened)->pdb().database(),
                        states[synced_seq]);
    }

    // The reopened database must accept new writes (the I/O-error latch
    // belongs to the dead process, not the recovered one).
    Tuple probe{Value(int64_t{7})};
    if (!(*reopened)->pdb().database().HasRelation("R")) {
      ASSERT_TRUE(
          (*reopened)->CreateRelation("R", Schema::Anonymous(1)).ok());
    }
    auto rel = (*reopened)->pdb().database().Get("R");
    if (!(*rel)->Contains(probe)) {
      EXPECT_TRUE((*reopened)->Insert("R", probe, 0.5).ok());
    }
  }
}

TEST_P(RecoveryCrashFuzz, TornCrashesRecoverSomeAcknowledgedPrefix) {
  const uint64_t seed = GetParam();
  const size_t num_ops = 10 + seed % 7;
  std::vector<WorkloadOp> ops = MakeWorkload(seed, num_ops);
  Oracle oracle = OracleStates(ops);
  const std::vector<Database>& states = oracle.states;

  uint64_t total_io = 0;
  {
    MemEnv mem;
    FaultInjectionEnv fault(&mem);
    auto db = DurableDatabase::Open("/db", Options(&fault));
    ASSERT_TRUE(db.ok());
    for (const WorkloadOp& op : ops) DurableApply(db->get(), op);
    ASSERT_TRUE((*db)->Close().ok());
    total_io = fault.ops();
  }

  // Tear at a sample of crash points (every point is covered by the exact
  // suite above; the torn model adds a random surviving tail prefix).
  Rng tear_rng(seed * 31 + 5);
  for (uint64_t crash = seed % 5; crash < total_io; crash += 5) {
    SCOPED_TRACE(StrFormat("torn crash at I/O op %llu",
                           static_cast<unsigned long long>(crash)));
    MemEnv mem;
    FaultInjectionEnv fault(&mem);
    uint64_t synced_seq = 0;
    {
      fault.CrashAfter(crash);
      auto db = DurableDatabase::Open("/db", Options(&fault));
      if (db.ok()) {
        for (const WorkloadOp& op : ops) DurableApply(db->get(), op);
        synced_seq = (*db)->last_synced_seq();
      }
    }
    fault.DropUnsyncedDataTorn(&tear_rng);
    fault.ClearFaults();

    auto reopened = DurableDatabase::Open("/db", Options(&fault));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    // A torn tail may preserve records past the last synced op, but never
    // lose a synced one: the recovered state must be the oracle at some
    // j >= synced_seq.
    uint64_t recovered_seq = (*reopened)->last_seq();
    ASSERT_GE(recovered_seq, synced_seq);
    ASSERT_LT(recovered_seq, states.size());
    ASSERT_TRUE(oracle.boundary[recovered_seq])
        << "torn-tail recovery landed mid-batch at seq " << recovered_seq
        << ": a WriteBatch record was split";
    EXPECT_TRUE(DatabasesEqual((*reopened)->pdb().database(),
                               states[recovered_seq]))
        << "recovered state is not the oracle prefix at its own seq "
        << recovered_seq;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, RecoveryCrashFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{100}));

// ---------------------------------------------------------------------
// Directed coverage.

TEST(DurableDatabaseTest, OpenCreatesEmptyDatabase) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->last_seq(), 0u);
  EXPECT_TRUE((*db)->pdb().database().RelationNames().empty());
}

TEST(DurableDatabaseTest, RoundTripsAllValueTypesBitExactly) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  Tuple row{Value(int64_t{-42}), Value(0.1 + 0.2), Value(std::string("a\0b", 3))};
  {
    auto db = DurableDatabase::Open("/data", options);
    ASSERT_TRUE(db.ok());
    Schema schema({{"i", ValueType::kInt},
                   {"d", ValueType::kDouble},
                   {"s", ValueType::kString}});
    ASSERT_TRUE((*db)->CreateRelation("Mixed", schema).ok());
    ASSERT_TRUE((*db)->Insert("Mixed", row, 0.1 + 0.2).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  const Relation& rel = **(*db)->pdb().database().Get("Mixed");
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.tuple(0), row);
  double expected = 0.1 + 0.2;
  EXPECT_EQ(std::memcmp(&rel.probs()[0], &expected, sizeof(double)), 0);
}

TEST(DurableDatabaseTest, ValidationFailuresAreNeverLogged) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
  ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{1})}, 0.5).ok());
  uint64_t seq = (*db)->last_seq();
  // Duplicate relation, missing relation, bad arity, duplicate tuple,
  // probability out of range: all rejected before touching the log.
  EXPECT_FALSE((*db)->CreateRelation("R", Schema::Anonymous(2)).ok());
  EXPECT_FALSE((*db)->Insert("Nope", {Value(int64_t{1})}, 0.5).ok());
  EXPECT_FALSE(
      (*db)->Insert("R", {Value(int64_t{1}), Value(int64_t{2})}, 0.5).ok());
  EXPECT_FALSE((*db)->Insert("R", {Value(int64_t{1})}, 0.5).ok());
  EXPECT_FALSE((*db)->Insert("R", {Value(int64_t{2})}, 1.5).ok());
  EXPECT_EQ((*db)->last_seq(), seq);
}

TEST(DurableDatabaseTest, CheckpointCompactsAndRecoveryUsesSnapshot) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  {
    auto db = DurableDatabase::Open("/data", options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("R", {Value(int64_t{i})}, 0.1 * (i + 1) / 2).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{99})}, 0.5).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  const RecoveryStats& rec = (*db)->recovery_stats();
  EXPECT_EQ(rec.snapshot_seq, 11u);     // create + 10 inserts
  EXPECT_EQ(rec.replayed_records, 1u);  // the post-checkpoint insert
  EXPECT_EQ((*db)->last_seq(), 12u);
  EXPECT_EQ((**(*db)->pdb().database().Get("R")).size(), 11u);
}

// Files in `dir` whose name starts with `prefix`, sorted (MemEnv sorts).
std::vector<std::string> FilesWithPrefix(Env* env, const std::string& dir,
                                         const std::string& prefix) {
  auto children = env->GetChildren(dir);
  PDB_CHECK(children.ok());
  std::vector<std::string> out;
  for (const std::string& name : *children) {
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

// Default retention (1): each checkpoint leaves exactly the snapshot it
// wrote plus the fresh WAL segment — older files are gone.
TEST(DurableDatabaseTest, DefaultRetentionKeepsOnlyLatestCheckpoint) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{round})}, 0.5).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ(FilesWithPrefix(&mem, "/data", "snap-").size(), 1u);
    EXPECT_EQ(FilesWithPrefix(&mem, "/data", "wal-").size(), 1u);
  }
}

// --retain-checkpoints 2: after three checkpoints the two newest
// snapshots survive, together with every WAL segment needed to recover
// from the *older* retained snapshot; recovery still lands on the full
// state (it starts from the newest snapshot).
TEST(DurableDatabaseTest, RetentionKeepsNSnapshotsAndNeededWal) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  options.retain_checkpoints = 2;
  {
    auto db = DurableDatabase::Open("/data", options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{round})}, 0.5).ok());
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
    EXPECT_EQ(FilesWithPrefix(&mem, "/data", "snap-").size(), 2u);
    ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{99})}, 0.5).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((**(*db)->pdb().database().Get("R")).size(), 4u);
  EXPECT_EQ((*db)->recovery_stats().replayed_records, 1u);
}

// The point of retaining an older checkpoint: when the newest snapshot is
// damaged, recovery skips it and rebuilds the identical state from the
// previous snapshot plus the retained WAL segments.
TEST(DurableDatabaseTest, RetainedCheckpointCoversCorruptNewestSnapshot) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  options.retain_checkpoints = 2;
  {
    auto db = DurableDatabase::Open("/data", options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{round})}, 0.5).ok());
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::vector<std::string> snaps = FilesWithPrefix(&mem, "/data", "snap-");
  ASSERT_EQ(snaps.size(), 2u);
  {  // Overwrite the newest snapshot with garbage.
    auto file = mem.NewWritableFile("/data/" + snaps.back());
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("not a snapshot").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->recovery_stats().snapshots_skipped, 1u);
  const Relation& rel = **(*db)->pdb().database().Get("R");
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains({Value(int64_t{0})}));
  EXPECT_TRUE(rel.Contains({Value(int64_t{1})}));
}

TEST(DurableDatabaseTest, IoErrorLatchesReadOnlyAndReopenClears) {
  MemEnv mem;
  testing::FaultInjectionEnv fault(&mem);
  DurableOptions options;
  options.env = &fault;
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
  fault.FailOnce("sync", 0);
  EXPECT_EQ((*db)->Insert("R", {Value(int64_t{1})}, 0.5).code(),
            StatusCode::kIoError);
  // Latched: even though faults are gone, the handle refuses writes (the
  // log tail is no longer trustworthy).
  EXPECT_EQ((*db)->Insert("R", {Value(int64_t{2})}, 0.5).code(),
            StatusCode::kFailedPrecondition);
  fault.DropUnsyncedData();
  auto reopened = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Insert("R", {Value(int64_t{1})}, 0.5).ok());
}

TEST(DurableDatabaseTest, SyncModeNoneLosesUnsyncedAcksButKeepsSynced) {
  MemEnv mem;
  testing::FaultInjectionEnv fault(&mem);
  DurableOptions options;
  options.env = &fault;
  options.sync_mode = SyncMode::kNone;
  {
    auto db = DurableDatabase::Open("/data", options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
    ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{1})}, 0.5).ok());
    ASSERT_TRUE((*db)->SyncWal().ok());
    EXPECT_EQ((*db)->last_synced_seq(), 2u);
    ASSERT_TRUE((*db)->Insert("R", {Value(int64_t{2})}, 0.5).ok());
    EXPECT_EQ((*db)->last_seq(), 3u);
    EXPECT_EQ((*db)->last_synced_seq(), 2u);
    // Crash without close: fail all further I/O so the destructor's
    // close cannot sync the tail the "crash" is supposed to lose.
    fault.CrashAfter(fault.ops());
  }
  fault.DropUnsyncedData();
  fault.ClearFaults();
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->last_seq(), 2u);
  EXPECT_EQ((**(*db)->pdb().database().Get("R")).size(), 1u);
}

// ---------------------------------------------------------------------
// Warm-restart of the shared WMC cache (the acceptance criterion: a
// repeated hard query after restart hits the shared cache, hit counter
// > 0, without recomputation).

TEST(WmcWarmRestartTest, ReloadedStoreServesSharedCacheHits) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  // The unsafe triangle-ish query: forced through grounded inference, so
  // it populates the shared WMC cache.
  const std::string query = "R(x), S(x,y), T(y)";
  double first_answer = 0;
  {
    auto db = DurableDatabase::Open("/data", options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(
        "R", Schema({{"x", ValueType::kInt}})).ok());
    ASSERT_TRUE((*db)->CreateRelation(
        "T", Schema({{"y", ValueType::kInt}})).ok());
    ASSERT_TRUE((*db)->CreateRelation(
        "S", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}})).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("R", {Value(int64_t{i})}, 0.3 + 0.05 * i).ok());
      ASSERT_TRUE(
          (*db)->Insert("T", {Value(int64_t{i})}, 0.2 + 0.05 * i).ok());
      for (int j = 0; j < 6; ++j) {
        if ((i + j) % 2 == 0) {
          ASSERT_TRUE((*db)
                          ->Insert("S", {Value(int64_t{i}), Value(int64_t{j})},
                                   0.5 + 0.04 * j)
                          .ok());
        }
      }
    }

    auto cache = std::make_shared<WmcCache>();
    SessionOptions session_options;
    session_options.num_threads = 1;
    session_options.external_wmc_cache = cache;
    Session session(&(*db)->pdb(), session_options);
    auto answer = session.Query(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    first_answer = answer->probability;
    ASSERT_GT(cache->stats().inserts, 0u);

    ASSERT_TRUE((*db)->SpillWmcCache(*cache).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }

  // "Restart": reopen, reload the component store into a fresh cache, and
  // answer the same query through a fresh session.
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  auto cache = std::make_shared<WmcCache>();
  auto loaded = (*db)->LoadWmcCache(cache.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_GT(*loaded, 0u);
  EXPECT_EQ(cache->stats().entries, *loaded);

  SessionOptions session_options;
  session_options.num_threads = 1;
  session_options.external_wmc_cache = cache;
  Session session(&(*db)->pdb(), session_options);
  auto answer = session.Query(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->probability, first_answer);  // bit-identical
  EXPECT_GT(cache->stats().hits, 0u)
      << "the warm cache served no hits: warm restart is not working";
}

TEST(WmcWarmRestartTest, TornComponentStoreLoadsValidPrefix) {
  MemEnv mem;
  DurableOptions options;
  options.env = &mem;
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  WmcCache cache;
  for (uint64_t i = 0; i < 2000; ++i) {
    WmcCache::Key key;
    key.sig.hi = i * 7919;
    key.sig.lo = i;
    key.weight_fp = ~i;
    cache.Insert(key, 0.5);
  }
  ASSERT_TRUE((*db)->SpillWmcCache(cache).ok());

  // Tear the store inside its final record: the loader takes the valid
  // prefix (the full earlier batches) instead of failing.
  std::string contents = mem.FileContents("/data/wmc.store");
  ASSERT_GT(contents.size(), 5u);
  mem.SetFileContents("/data/wmc.store",
                      contents.substr(0, contents.size() - 5));
  WmcCache reloaded;
  auto loaded = (*db)->LoadWmcCache(&reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(*loaded, 0u);
  EXPECT_LT(*loaded, 2000u);
  EXPECT_EQ(reloaded.stats().entries, *loaded);
}

// Gives `cache` one entry, for the spill tests below.
void InsertOneEntry(WmcCache* cache) {
  WmcCache::Key key;
  key.sig.hi = 7;
  key.sig.lo = 11;
  key.weight_fp = 13;
  cache->Insert(key, 0.25);
}

// The component store is a cache beside the WAL: a spill that fails
// returns its error, and the database stays writable.
TEST(WmcSpillTest, FailedSpillLeavesDatabaseWritable) {
  MemEnv mem;
  FaultInjectionEnv fault(&mem);
  DurableOptions options;
  options.env = &fault;
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
  WmcCache cache;
  InsertOneEntry(&cache);
  fault.FailOnce("sync", 0);  // the store's temp file
  EXPECT_EQ((*db)->SpillWmcCache(cache).code(), StatusCode::kIoError);
  EXPECT_TRUE((*db)->Insert("R", {Value(int64_t{1})}, 0.5).ok());
  EXPECT_TRUE((*db)->SpillWmcCache(cache).ok());
  WmcCache reloaded;
  auto loaded = (*db)->LoadWmcCache(&reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1u);
}

// A MemEnv whose component-store temp file parks in Sync until released.
class ParkedSpillEnv : public MemEnv {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto file = MemEnv::NewWritableFile(path);
    if (!file.ok() || path != JoinPath("/data", "wmc.store.tmp")) return file;
    return Result<std::unique_ptr<WritableFile>>(
        std::make_unique<ParkedFile>(this, std::move(*file)));
  }

  /// Whether a spill parked in its Sync within `timeout`.
  bool WaitParked(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return parked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  class ParkedFile : public WritableFile {
   public:
    ParkedFile(ParkedSpillEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      std::unique_lock<std::mutex> lock(env_->mu_);
      env_->parked_ = true;
      env_->cv_.notify_all();
      env_->cv_.wait(lock, [&] { return env_->released_; });
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    ParkedSpillEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;    // guarded by mu_
  bool released_ = false;  // guarded by mu_
};

// A spill parked in its fsync must not hold up a writer. pdbd spills every
// --wmc-spill-ms, so a spill that held the commit mutex would stall every
// Insert, ApplyBatch and /ingest behind the store's file I/O. A checkpoint
// taken meanwhile must not delete the spill's temp file either: its sweep
// of stray temps from interrupted checkpoints would fail the spill's
// rename.
TEST(WmcSpillTest, ParkedSpillDoesNotBlockWriters) {
  ParkedSpillEnv env;
  DurableOptions options;
  options.env = &env;
  auto db = DurableDatabase::Open("/data", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateRelation("R", Schema::Anonymous(1)).ok());
  WmcCache cache;
  InsertOneEntry(&cache);
  Status spilled;
  std::thread spill([&] { spilled = (*db)->SpillWmcCache(cache); });
  std::future<Status> insert, checkpoint;
  // Releases the parked spill and joins it on every path (declared after
  // the futures, so it runs before their destructors wait): a writer stuck
  // behind the spill fails the test instead of hanging it.
  class ReleaseAndJoin {
   public:
    ReleaseAndJoin(ParkedSpillEnv* env, std::thread* spill)
        : env_(env), spill_(spill) {}
    ReleaseAndJoin(const ReleaseAndJoin&) = delete;
    ReleaseAndJoin& operator=(const ReleaseAndJoin&) = delete;
    ~ReleaseAndJoin() {
      env_->Release();
      if (spill_->joinable()) spill_->join();
    }

   private:
    ParkedSpillEnv* env_;
    std::thread* spill_;
  } release_and_join(&env, &spill);
  ASSERT_TRUE(env.WaitParked(std::chrono::seconds(10)));
  insert = std::async(std::launch::async, [&] {
    return (*db)->Insert("R", {Value(int64_t{1})}, 0.5);
  });
  ASSERT_EQ(insert.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "an Insert waited for a WMC spill parked in its fsync";
  EXPECT_TRUE(insert.get().ok());
  checkpoint = std::async(std::launch::async, [&] {
    return (*db)->Checkpoint();
  });
  ASSERT_EQ(checkpoint.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a checkpoint waited for a WMC spill parked in its fsync";
  EXPECT_TRUE(checkpoint.get().ok());
  env.Release();
  spill.join();
  EXPECT_TRUE(spilled.ok()) << spilled.ToString();
}

}  // namespace
}  // namespace pdb
