/// \file durable_db.h
/// \brief Durable wrapper around `ProbDatabase`: a write-ahead log with
/// group commit, crash recovery, off-write-path checkpoints, and a
/// warm-restart store for the shared WMC cache.
///
/// `DurableDatabase` makes the engine survive restarts (ROADMAP: "a server
/// restart loses everything"). Design, in the LevelDB/RocksDB idiom:
///
///  - every mutation (`AddRelation`, `Insert`, `ApplyBatch`) is serialized
///    into a CRC-framed WAL record (storage/wal.h) and appended — and, in
///    `SyncMode::kAlways`, fsynced — *before* it is applied to the
///    in-memory `ProbDatabase`; an OK return therefore means the operation
///    is durable (log-then-apply / write-ahead rule);
///  - a `WriteBatch` of N mutations becomes ONE WAL record, validated as a
///    unit before logging and replayed atomically on recovery: a torn tail
///    yields the whole batch or none of it, never a prefix;
///  - concurrent writers join a leader–follower commit group (the RocksDB
///    `JoinBatchGroup` shape): the first enqueued writer becomes leader,
///    drains every waiting batch into one WAL write, issues a SINGLE
///    `Sync` for the group, applies all mutations, and wakes the group —
///    so sustained multi-writer fsync cost amortizes across the group;
///  - `Open` replays the newest complete snapshot, then the WAL segments in
///    sequence order. A torn or corrupt tail record — the signature of a
///    crash mid-append — truncates the log at the last complete record
///    instead of failing the open: recovery always yields a prefix of the
///    acknowledged operations, never an error on legitimately crashed
///    state;
///  - `Checkpoint` runs off the write path: a brief seqno fence under the
///    commit mutex serializes the catalog to in-memory records and rolls a
///    fresh WAL segment; the expensive part — writing, fsyncing, renaming
///    `snap-<seq>` and deleting the files it made redundant — happens
///    without blocking writers, which keep committing to the new segment.
///    With `background_checkpoints` the `checkpoint_every_n` trigger hands
///    the whole job to a dedicated thread so not even the triggering
///    writer pays for it;
///  - the sidecar component store (`wmc.store`) persists shared-WMC-cache
///    entries (canonical signature + weight fingerprint + value). Warm
///    restarts reload it into a `WmcCache`, keeping the repeated-hard-query
///    win across process restarts. Safe by construction: the 192-bit keys
///    are pure functions of (formula structure, weights), so entries from
///    any database state can never serve a mismatched lookup.
///
/// All I/O goes through a `storage/env.h` seam; tests substitute a
/// deterministic fault-injecting filesystem (tests/fault_env.h) and crash
/// the workload at every single I/O step. `FaultInjectionEnv` is
/// single-threaded, which is why `background_checkpoints` defaults to off:
/// the crash-injection census runs every checkpoint inline and
/// deterministically, while pdbd opts in to the background thread.
///
/// Concurrency: mutators are thread-safe and group-commit with each other.
/// The inner `ProbDatabase` itself has no synchronization, so readers and
/// the commit path coordinate through `read_mutex()`: a query holds it
/// shared for the duration of its execution, and a commit group's leader
/// holds it exclusive only while applying the group's mutations to memory
/// — the WAL append and fsync (the slow part of a commit) never exclude
/// readers, and concurrent writers still amortize into one group. Callers
/// that never mutate after startup (e.g. an in-memory pdbd) may skip the
/// shared lock entirely.
///
/// After any WAL I/O error the database becomes read-only — the log tail
/// is no longer trustworthy, so accepting more writes could silently lose
/// them; reopening runs recovery and clears the condition.

#ifndef PDB_STORAGE_DURABLE_DB_H_
#define PDB_STORAGE_DURABLE_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/pdb.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "storage/write_batch.h"
#include "wmc/wmc_cache.h"

namespace pdb {

/// When WAL appends become durable.
enum class SyncMode {
  /// fsync after every commit group: an OK mutation is crash-durable.
  kAlways,
  /// Let the OS schedule writeback; fsync only at checkpoints and on
  /// `SyncWal`. Faster bulk loads; a crash loses the unsynced suffix.
  kNone,
};

/// Parses "always" | "none" (the pdbd --sync-mode values).
Result<SyncMode> ParseSyncMode(const std::string& text);

struct DurableOptions {
  /// Filesystem to operate on; null uses `Env::Default()` (POSIX).
  Env* env = nullptr;
  SyncMode sync_mode = SyncMode::kAlways;
  /// Auto-checkpoint after this many logged operations (0 = only when
  /// `Checkpoint` is called explicitly).
  uint64_t checkpoint_every_n = 0;
  /// Retention GC: after a successful checkpoint keep this many newest
  /// snapshots (the one just written included) plus every WAL segment
  /// still needed to recover from the oldest retained snapshot; older
  /// files are deleted. 0 behaves as 1 (always keep the latest).
  size_t retain_checkpoints = 1;
  /// Run `checkpoint_every_n`-triggered checkpoints on a dedicated
  /// background thread instead of inline on the triggering writer. Off by
  /// default: the crash-injection harness (tests/fault_env.h) is
  /// single-threaded and needs deterministic I/O ordering. pdbd turns it
  /// on.
  bool background_checkpoints = false;
  /// Group-commit window (the PostgreSQL `commit_delay` / MySQL
  /// `binlog_group_commit_sync_delay` shape): when other writers are
  /// already in flight but not yet queued, a new leader waits up to this
  /// many microseconds for them to join its group before logging, so one
  /// sync covers the lot. The wait ends early once every in-flight writer
  /// is queued, and a lone writer never waits — an idle or single-writer
  /// workload pays no added latency. Only consulted under
  /// `SyncMode::kAlways` (without fsyncs there is nothing to amortize).
  /// 0 (default) does not wait: the leader only yields its CPU once, so
  /// runnable siblings can enqueue, then commits.
  uint32_t group_commit_window_us = 0;
};

/// What recovery found and did during `Open`.
struct RecoveryStats {
  /// Sequence number of the snapshot loaded (0 when none existed).
  uint64_t snapshot_seq = 0;
  /// Mutations replayed on top of the snapshot (a WriteBatch record
  /// counts each mutation it carries).
  uint64_t replayed_records = 0;
  /// WAL segments visited during replay.
  uint64_t segments_replayed = 0;
  /// True when a torn or corrupt tail was found and cut off.
  bool tail_truncated = false;
  /// Bytes discarded by tail truncation.
  uint64_t truncated_bytes = 0;
  /// Snapshot files that failed validation and were skipped.
  uint64_t snapshots_skipped = 0;
};

/// A `ProbDatabase` whose mutations are write-ahead logged to `data_dir`
/// and recovered on open. Create via `Open`.
class DurableDatabase {
 public:
  /// Opens (creating if needed) the database stored in `data_dir`:
  /// loads the newest complete snapshot, replays the WAL — truncating a
  /// torn tail instead of failing — and starts a fresh WAL segment.
  static Result<std::unique_ptr<DurableDatabase>> Open(
      const std::string& data_dir, const DurableOptions& options = {});

  ~DurableDatabase();

  DurableDatabase(const DurableDatabase&) = delete;
  DurableDatabase& operator=(const DurableDatabase&) = delete;

  /// The recovered in-memory database; issue queries against it (or a
  /// `Session` bound to it). Do not mutate it directly — use the logged
  /// mutators below, or the change will not survive a restart.
  ProbDatabase& pdb() { return pdb_; }
  const ProbDatabase& pdb() const { return pdb_; }

  /// Reader–writer exclusion between queries and the in-memory apply step
  /// of a commit. Hold shared while reading `pdb()` if mutations may run
  /// concurrently (pdbd takes it around every query when serving a
  /// durable store); the commit path takes it exclusive around the brief
  /// apply-to-memory step only, so a reader never waits on WAL I/O.
  std::shared_mutex& read_mutex() const { return apply_mu_; }

  /// Logs and applies a whole-relation add (schema + tuples). Fails
  /// without logging on a duplicate name.
  Status AddRelation(Relation relation);

  /// Logs and applies the registration of an empty relation.
  Status CreateRelation(const std::string& name, Schema schema);

  /// Logs and applies one tuple insert. Fails without logging on a
  /// missing relation, schema mismatch, duplicate tuple, or probability
  /// outside [0, 1] — an op that cannot apply is never written to the log.
  Status Insert(const std::string& relation, Tuple tuple, double p = 1.0);

  /// Atomically commits every mutation staged in `batch`: one WAL record,
  /// one sync, all-or-nothing on recovery. The whole batch is validated
  /// first; any invalid op rejects the batch without logging anything.
  /// The batch is left intact (call `Clear` to reuse it).
  Status ApplyBatch(WriteBatch* batch);

  /// Convenience: commits `rows` into `relation` as one atomic batch.
  Status InsertMany(const std::string& relation,
                    std::vector<std::pair<Tuple, double>> rows);

  /// Writes a point-in-time snapshot of the catalog, rolls the WAL, and
  /// deletes the now-redundant older files. Only the brief catalog
  /// serialization fence blocks concurrent writers; the file I/O does not.
  Status Checkpoint();

  /// fsyncs the WAL (a no-op barrier under `SyncMode::kAlways`).
  Status SyncWal();

  /// Atomically rewrites the sidecar component store with every entry of
  /// `cache` (signature, weight fingerprint, value): a temp file, fsync,
  /// then rename. Spills and loads serialize on their own mutex and never
  /// block writers. The store is a cache beside the WAL, so a failed spill
  /// returns its error and leaves the database writable (no read-only
  /// latch); the previous store, if any, stays in place.
  Status SpillWmcCache(const WmcCache& cache);

  /// Loads the component store into `cache`; tolerates a torn tail (loads
  /// the valid prefix). Returns the number of entries loaded.
  Result<uint64_t> LoadWmcCache(WmcCache* cache);

  /// Syncs and closes the WAL. Further mutations fail; queries still work.
  Status Close();

  /// Sequence number of the last applied operation.
  uint64_t last_seq() const;
  /// Sequence number of the last operation known durable (== `last_seq`
  /// under `SyncMode::kAlways` outside of an in-flight mutation).
  uint64_t last_synced_seq() const;

  const RecoveryStats& recovery_stats() const { return recovery_; }

  /// Storage metrics (WAL appends/syncs/bytes, batch/group-commit counts
  /// and group-size histogram, recovery replays and truncations,
  /// checkpoints, component-store levels). pdbd merges this registry into
  /// its /metrics exposition.
  MetricsRegistry& metrics() { return metrics_; }

  /// Storage-side IO trace: the recovery-replay span from Open, plus
  /// wal_append / wal_sync spans (capped — the ring keeps the totals
  /// honest while bounding memory) and checkpoint spans. pdbd points
  /// `ServerOptions::io_trace` here so GET /debug/profile folds storage
  /// latency into the same per-phase percentiles as query phases.
  const QueryTrace& io_trace() const { return io_trace_; }

 private:
  /// One writer waiting in (or leading) a commit group.
  struct Writer {
    explicit Writer(WriteBatch* b) : batch(b) {}
    WriteBatch* batch;
    Status status;
    bool done = false;
  };

  /// Effects of earlier ops in the same commit group / replayed batch,
  /// visible to validation before they are applied: relations created
  /// (name -> schema) and tuples inserted. Tuples are tracked per
  /// relation so duplicate detection spans the group.
  struct PendingState {
    std::unordered_map<std::string, Schema> new_relations;
    std::unordered_map<std::string, std::unordered_set<Tuple>> new_tuples;
  };

  /// A checkpoint fence taken under mu_: the catalog serialized to
  /// records plus the sequence number it covers. Writing the snapshot
  /// file from the fence needs no lock.
  struct CheckpointFence {
    uint64_t seq = 0;
    std::vector<std::string> records;
  };

  DurableDatabase(std::string data_dir, const DurableOptions& options);

  /// (op byte + self-delimiting body) — the unit both legacy single-op
  /// records and WriteBatch records are built from.
  static void EncodeOp(std::string* dst, const WriteBatch::Op& op);
  static bool DecodeOp(std::string_view* in, WriteBatch::Op* op);
  static bool DecodeOpBody(std::string_view* in, WriteBatch::Op* op);

  Status Recover();
  /// Replays one WAL segment; sets *stop when replay must not continue
  /// past this segment (corruption / torn tail / gap).
  Status ReplaySegment(const std::string& name, bool* stop);
  Result<uint64_t> LoadSnapshot(const std::string& name);
  Status RollWalLocked();

  /// The group-commit entry point every mutator funnels into: enqueue,
  /// become leader or wait, leader commits the whole group.
  Status CommitBatch(WriteBatch* batch);
  /// Leader body: validates, logs (one record per batch), syncs once,
  /// applies every batch in `group`. Sets *want_checkpoint when the
  /// auto-checkpoint threshold tripped. Caller holds mu_.
  void CommitGroupLocked(const std::vector<Writer*>& group,
                         bool* want_checkpoint);
  /// Validates one op against the live catalog plus `pending` (earlier
  /// ops of the same group/batch), recording its effects into `pending`
  /// on success. Caller holds mu_.
  Status ValidateOpLocked(const WriteBatch::Op& op, PendingState* pending);
  /// Applies one validated op, copying its tuple or relation into the
  /// catalog: the commit path leaves the caller's batch intact. Caller
  /// holds mu_.
  Status ApplyOpLocked(const WriteBatch::Op& op);

  /// Serializes the catalog + rolls the WAL under mu_ (the brief fence).
  Status PrepareCheckpointLocked(CheckpointFence* fence);
  /// Writes, syncs, renames the snapshot from `fence` and runs retention
  /// GC — off mu_, under checkpoint_mu_.
  Status WriteCheckpointFence(CheckpointFence fence);
  /// Fence + write. `only_if_dirty` skips when nothing was logged since
  /// the last checkpoint (the background trigger path).
  Status DoCheckpoint(bool only_if_dirty);
  /// Wakes the background checkpoint thread (options_.background_checkpoints).
  void RequestBackgroundCheckpoint();
  void CheckpointThreadMain();

  void SetIoErrorLocked(const Status& status);
  void SetIoError(const Status& status);

  const std::string dir_;
  DurableOptions options_;
  Env* env_;

  ProbDatabase pdb_;

  MetricsRegistry metrics_;
  Counter* wal_records_;
  Counter* wal_bytes_;
  Counter* wal_syncs_;
  Counter* wal_batch_records_;
  Counter* wal_batch_mutations_;
  Counter* group_commits_;
  Counter* recovery_replayed_;
  Counter* recovery_truncations_;
  Counter* checkpoints_;
  Counter* wmc_store_spills_;
  Counter* wmc_store_loaded_;
  Counter* checkpoint_duration_us_;
  Histogram* wal_sync_seconds_;
  Histogram* group_size_;
  Gauge* wmc_store_entries_;
  Gauge* last_seq_gauge_;
  Gauge* relations_gauge_;

  /// IO spans (recovery / wal_append / wal_sync / checkpoint). QueryTrace
  /// is internally synchronized; per-phase span counts are capped in the
  /// .cc so a long-lived server does not grow this without bound.
  QueryTrace io_trace_;
  std::atomic<uint64_t> wal_append_spans_{0};
  std::atomic<uint64_t> wal_sync_spans_{0};

  /// The commit queue (RocksDB JoinBatchGroup shape). Writers enqueue
  /// under writers_mu_ and wait; the front writer leads. Ordered before
  /// mu_: a leader holds writers_mu_ only to snapshot/pop the queue,
  /// never while logging.
  std::mutex writers_mu_;
  std::condition_variable writers_cv_;
  std::deque<Writer*> writers_;  // guarded by writers_mu_
  /// Writers inside CommitBatch (queued, leading, or waking). A leader
  /// consults this against the queue length to decide whether the
  /// group-commit window is worth waiting out — if nobody else is in
  /// flight, no straggler can arrive and the window is skipped.
  std::atomic<uint64_t> inflight_writers_{0};

  /// Excludes queries (shared holders) from the in-memory apply step of a
  /// commit group (exclusive, taken under mu_). Never held while doing
  /// I/O. Lock order: mu_ then apply_mu_; shared holders take it alone.
  mutable std::shared_mutex apply_mu_;

  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> wal_file_;       // guarded by mu_
  std::optional<LogWriter> wal_;                 // guarded by mu_
  std::string wal_path_;                         // guarded by mu_
  uint64_t last_seq_ = 0;                        // guarded by mu_
  uint64_t last_synced_seq_ = 0;                 // guarded by mu_
  uint64_t records_since_checkpoint_ = 0;        // guarded by mu_
  Status io_error_;                              // guarded by mu_
  bool closed_ = false;                          // guarded by mu_

  /// Serializes snapshot-file writes (explicit, auto, and background
  /// checkpoints) so fences are written in order. Never held under mu_.
  std::mutex checkpoint_mu_;

  /// Serializes component-store spills and loads. Taken alone: never with
  /// mu_ or checkpoint_mu_.
  std::mutex wmc_store_mu_;

  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_checkpoint_requested_ = false;  // guarded by bg_mu_
  bool bg_stop_ = false;                  // guarded by bg_mu_
  std::thread checkpoint_thread_;

  RecoveryStats recovery_;  // written once during Open, then read-only
};

}  // namespace pdb

#endif  // PDB_STORAGE_DURABLE_DB_H_
