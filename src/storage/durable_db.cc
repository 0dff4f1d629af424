#include "storage/durable_db.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <utility>

#include "storage/coding.h"
#include "util/string_util.h"

namespace pdb {

namespace {

/// Snapshot / component-store record magics (first 4 bytes of a record).
constexpr uint32_t kSnapshotHeaderMagic = 0x50444253;  // "SBDP" LE
constexpr uint32_t kSnapshotFooterMagic = 0x50444245;  // "EBDP" LE
constexpr uint32_t kWmcStoreMagic = 0x31434d57;        // "WMC1" LE
constexpr uint64_t kFormatVersion = 1;

/// Entries per component-store record (bounds record size well under the
/// 32 KiB WAL block).
constexpr size_t kWmcBatch = 512;

constexpr char kWmcStoreName[] = "wmc.store";
constexpr char kWmcStoreTmpName[] = "wmc.store.tmp";

std::string WalName(uint64_t first_seq) {
  return StrFormat("wal-%020" PRIu64 ".log", first_seq);
}

std::string SnapshotName(uint64_t seq) {
  return StrFormat("snap-%020" PRIu64, seq);
}

/// Parses "<prefix><20-digit seq><suffix>"; false on any other shape.
bool ParseSeqName(const std::string& name, const std::string& prefix,
                  const std::string& suffix, uint64_t* seq) {
  if (name.size() != prefix.size() + 20 + suffix.size()) return false;
  if (name.rfind(prefix, 0) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 20; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

void EncodeValue(std::string* dst, const Value& v) {
  dst->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kInt:
      PutVarint64(dst, ZigZagEncode(v.AsInt()));
      break;
    case ValueType::kDouble:
      PutDouble(dst, v.AsDouble());
      break;
    case ValueType::kString:
      PutLengthPrefixed(dst, v.AsString());
      break;
  }
}

bool DecodeValue(std::string_view* in, Value* v) {
  if (in->empty()) return false;
  uint8_t tag = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  switch (tag) {
    case 0: {
      uint64_t zz = 0;
      if (!GetVarint64(in, &zz)) return false;
      *v = Value(ZigZagDecode(zz));
      return true;
    }
    case 1: {
      double d = 0;
      if (!GetDouble(in, &d)) return false;
      *v = Value(d);
      return true;
    }
    case 2: {
      std::string_view s;
      if (!GetLengthPrefixed(in, &s)) return false;
      *v = Value(std::string(s));
      return true;
    }
    default:
      return false;
  }
}

void EncodeSchema(std::string* dst, const Schema& schema) {
  PutVarint64(dst, schema.arity());
  for (const Attribute& attr : schema.attributes()) {
    PutLengthPrefixed(dst, attr.name);
    dst->push_back(static_cast<char>(attr.type));
  }
}

bool DecodeSchema(std::string_view* in, Schema* schema) {
  uint64_t arity = 0;
  if (!GetVarint64(in, &arity)) return false;
  std::vector<Attribute> attributes;
  for (uint64_t i = 0; i < arity; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(in, &name)) return false;
    if (in->empty()) return false;
    uint8_t tag = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    if (tag > 2) return false;
    attributes.push_back(
        {std::string(name), static_cast<ValueType>(tag)});
  }
  *schema = Schema(std::move(attributes));
  return true;
}

/// Serializes name + schema + every (tuple, probability) row.
void EncodeRelation(std::string* dst, const Relation& rel) {
  PutLengthPrefixed(dst, rel.name());
  EncodeSchema(dst, rel.schema());
  PutVarint64(dst, rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    const Tuple& tuple = rel.tuple(i);
    for (const Value& v : tuple) EncodeValue(dst, v);
    PutDouble(dst, rel.prob(i));
  }
}

bool DecodeRelation(std::string_view* in, Relation* out) {
  std::string_view name;
  if (!GetLengthPrefixed(in, &name)) return false;
  Schema schema;
  if (!DecodeSchema(in, &schema)) return false;
  size_t arity = schema.arity();
  uint64_t rows = 0;
  if (!GetVarint64(in, &rows)) return false;
  Relation rel(std::string(name), std::move(schema));
  for (uint64_t r = 0; r < rows; ++r) {
    Tuple tuple;
    for (size_t c = 0; c < arity; ++c) {
      Value v;
      if (!DecodeValue(in, &v)) return false;
      tuple.push_back(std::move(v));
    }
    double p = 0;
    if (!GetDouble(in, &p)) return false;
    if (!rel.AddTuple(std::move(tuple), p).ok()) return false;
  }
  *out = std::move(rel);
  return true;
}

// Per-phase cap on wal_append / wal_sync spans kept in the IO trace: the
// first N syncs characterize the latency distribution for /debug/profile
// without letting a long-lived server grow the span vector unboundedly.
constexpr uint64_t kMaxIoSpansPerPhase = 256;

}  // namespace

Result<SyncMode> ParseSyncMode(const std::string& text) {
  if (text == "always") return SyncMode::kAlways;
  if (text == "none") return SyncMode::kNone;
  return Status::InvalidArgument("bad sync mode '" + text +
                                 "' (want always|none)");
}

void DurableDatabase::EncodeOp(std::string* dst, const WriteBatch::Op& op) {
  dst->push_back(static_cast<char>(op.code));
  if (op.code == kWalOpAddRelation) {
    EncodeRelation(dst, op.relation);
  } else {
    PutLengthPrefixed(dst, op.target);
    PutVarint64(dst, op.tuple.size());
    for (const Value& v : op.tuple) EncodeValue(dst, v);
    PutDouble(dst, op.p);
  }
}

bool DurableDatabase::DecodeOpBody(std::string_view* in, WriteBatch::Op* op) {
  if (op->code == kWalOpAddRelation) {
    return DecodeRelation(in, &op->relation);
  }
  if (op->code == kWalOpInsert) {
    std::string_view target;
    uint64_t arity = 0;
    if (!GetLengthPrefixed(in, &target) || !GetVarint64(in, &arity)) {
      return false;
    }
    op->target = std::string(target);
    for (uint64_t c = 0; c < arity; ++c) {
      Value v;
      if (!DecodeValue(in, &v)) return false;
      op->tuple.push_back(std::move(v));
    }
    return GetDouble(in, &op->p);
  }
  return false;
}

bool DurableDatabase::DecodeOp(std::string_view* in, WriteBatch::Op* op) {
  if (in->empty()) return false;
  op->code = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  if (op->code == kWalOpWriteBatch) return false;  // batches do not nest
  return DecodeOpBody(in, op);
}

DurableDatabase::DurableDatabase(std::string data_dir,
                                 const DurableOptions& options)
    : dir_(std::move(data_dir)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {
  wal_records_ = metrics_.GetCounter("pdb_wal_records_total");
  wal_bytes_ = metrics_.GetCounter("pdb_wal_bytes_total");
  wal_syncs_ = metrics_.GetCounter("pdb_wal_syncs_total");
  wal_batch_records_ = metrics_.GetCounter("pdb_wal_batch_records_total");
  wal_batch_mutations_ =
      metrics_.GetCounter("pdb_wal_batch_mutations_total");
  group_commits_ = metrics_.GetCounter("pdb_wal_group_commits_total");
  recovery_replayed_ =
      metrics_.GetCounter("pdb_recovery_replayed_records_total");
  recovery_truncations_ =
      metrics_.GetCounter("pdb_recovery_tail_truncations_total");
  checkpoints_ = metrics_.GetCounter("pdb_checkpoints_total");
  wmc_store_spills_ = metrics_.GetCounter("pdb_wmc_store_spills_total");
  wmc_store_loaded_ = metrics_.GetCounter("pdb_wmc_store_loaded_total");
  checkpoint_duration_us_ =
      metrics_.GetCounter("pdb_checkpoint_duration_us_total");
  // Named per convention for fsync-latency histograms; the log2 buckets
  // record MICROSECONDS (a seconds-resolution histogram would collapse
  // every fsync into bucket 0).
  wal_sync_seconds_ = metrics_.GetHistogram("pdb_wal_sync_seconds");
  // Mutations per commit group: how well fsyncs amortize under load.
  group_size_ = metrics_.GetHistogram("pdb_wal_group_size");
  wmc_store_entries_ = metrics_.GetGauge("pdb_wmc_store_entries");
  last_seq_gauge_ = metrics_.GetGauge("pdb_data_last_seq");
  relations_gauge_ = metrics_.GetGauge("pdb_data_relations");
}

DurableDatabase::~DurableDatabase() { Close(); }

Result<std::unique_ptr<DurableDatabase>> DurableDatabase::Open(
    const std::string& data_dir, const DurableOptions& options) {
  if (data_dir.empty()) {
    return Status::InvalidArgument("data_dir must not be empty");
  }
  std::unique_ptr<DurableDatabase> db(
      new DurableDatabase(data_dir, options));
  PDB_RETURN_NOT_OK(db->Recover());
  if (options.background_checkpoints) {
    db->checkpoint_thread_ =
        std::thread(&DurableDatabase::CheckpointThreadMain, db.get());
  }
  return db;
}

Status DurableDatabase::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t recover_start = io_trace_.NowNs();
  PDB_RETURN_NOT_OK(env_->CreateDirIfMissing(dir_));
  std::vector<std::string> children;
  {
    auto listed = env_->GetChildren(dir_);
    if (!listed.ok()) return listed.status();
    children = std::move(*listed);
  }

  std::vector<uint64_t> snapshot_seqs;
  std::vector<uint64_t> wal_seqs;
  for (const std::string& name : children) {
    uint64_t seq = 0;
    if (ParseSeqName(name, "snap-", "", &seq)) snapshot_seqs.push_back(seq);
    if (ParseSeqName(name, "wal-", ".log", &seq)) wal_seqs.push_back(seq);
  }
  std::sort(snapshot_seqs.rbegin(), snapshot_seqs.rend());  // newest first
  std::sort(wal_seqs.begin(), wal_seqs.end());

  // Newest complete snapshot wins; an incomplete or corrupt one (e.g. a
  // crash mid-checkpoint beat the rename, or damaged it) falls back to the
  // previous, with the skipped file counted.
  for (uint64_t seq : snapshot_seqs) {
    auto loaded = LoadSnapshot(SnapshotName(seq));
    if (loaded.ok()) {
      recovery_.snapshot_seq = seq;
      last_seq_ = seq;
      break;
    }
    ++recovery_.snapshots_skipped;
  }

  // Replay WAL segments in sequence order. A segment named wal-<n> holds
  // records with seq >= n; records at or below the snapshot seq are
  // skipped, a gap or corruption stops replay (everything later is an
  // untrusted suffix).
  bool stop = false;
  for (size_t i = 0; i < wal_seqs.size() && !stop; ++i) {
    // Skip segments that a later segment makes entirely redundant (the
    // next one starts at or below the first sequence still needed); a
    // segment straddling the snapshot boundary is replayed and its
    // covered prefix skipped record by record.
    if (i + 1 < wal_seqs.size() && wal_seqs[i + 1] <= last_seq_ + 1) {
      continue;
    }
    PDB_RETURN_NOT_OK(ReplaySegment(WalName(wal_seqs[i]), &stop));
    ++recovery_.segments_replayed;
  }
  last_synced_seq_ = last_seq_;

  // Start a fresh segment for new appends; old segments stay until the
  // next checkpoint compacts them.
  PDB_RETURN_NOT_OK(RollWalLocked());

  recovery_replayed_->Add(recovery_.replayed_records);
  if (recovery_.tail_truncated) recovery_truncations_->Add(1);
  last_seq_gauge_->Set(static_cast<int64_t>(last_seq_));
  relations_gauge_->Set(
      static_cast<int64_t>(pdb_.database().RelationNames().size()));
  io_trace_.RecordSpan(
      TracePhase::kRecovery, recover_start,
      io_trace_.NowNs() - recover_start,
      {{"replayed_records", recovery_.replayed_records},
       {"segments_replayed", recovery_.segments_replayed}});
  return Status::OK();
}

Result<uint64_t> DurableDatabase::LoadSnapshot(const std::string& name) {
  std::string contents;
  PDB_RETURN_NOT_OK(env_->ReadFileToString(JoinPath(dir_, name), &contents));
  LogReader reader(contents);
  std::string record;

  if (!reader.ReadRecord(&record)) {
    return Status::Corruption("snapshot missing header: " + name);
  }
  std::string_view in(record);
  uint32_t magic = 0;
  uint64_t version = 0, seq = 0, relation_count = 0;
  if (!GetFixed32(&in, &magic) || magic != kSnapshotHeaderMagic ||
      !GetVarint64(&in, &version) || version != kFormatVersion ||
      !GetVarint64(&in, &seq) || !GetVarint64(&in, &relation_count)) {
    return Status::Corruption("bad snapshot header: " + name);
  }

  Database db;
  uint64_t relations_read = 0;
  bool complete = false;
  while (reader.ReadRecord(&record)) {
    std::string_view body(record);
    if (record.size() >= 4 &&
        DecodeFixed32(record.data()) == kSnapshotFooterMagic) {
      uint32_t footer_magic = 0;
      uint64_t footer_count = 0;
      if (GetFixed32(&body, &footer_magic) &&
          GetVarint64(&body, &footer_count) &&
          footer_count == relations_read &&
          relations_read == relation_count) {
        complete = true;
      }
      break;
    }
    Relation rel;
    if (!DecodeRelation(&body, &rel) || !body.empty()) {
      return Status::Corruption("bad snapshot relation record: " + name);
    }
    PDB_RETURN_NOT_OK(db.AddRelation(std::move(rel)));
    ++relations_read;
  }
  if (!complete) {
    return Status::Corruption("snapshot incomplete (no valid footer): " +
                              name);
  }
  pdb_.database() = std::move(db);
  pdb_.BumpGeneration();
  return seq;
}

Status DurableDatabase::ReplaySegment(const std::string& name, bool* stop) {
  const std::string path = JoinPath(dir_, name);
  std::string contents;
  PDB_RETURN_NOT_OK(env_->ReadFileToString(path, &contents));
  LogReader reader(contents);
  std::string record;
  uint64_t applied_prefix = 0;  // file offset after the last applied record
  bool damaged = false;

  while (reader.ReadRecord(&record)) {
    std::string_view in(record);
    uint64_t seq = 0;
    if (!GetVarint64(&in, &seq) || in.empty()) {
      damaged = true;
      break;
    }
    uint8_t code = static_cast<uint8_t>(in.front());
    in.remove_prefix(1);

    // Decode the record into its mutations: one for a legacy single-op
    // record, N for a WriteBatch record. A batch decodes (and below,
    // validates and applies) as a unit — recovery can never surface a
    // prefix of a batch.
    std::vector<WriteBatch::Op> ops;
    bool decode_ok = true;
    if (code == kWalOpWriteBatch) {
      uint64_t count = 0;
      decode_ok = GetVarint64(&in, &count) && count > 0;
      for (uint64_t i = 0; i < count && decode_ok; ++i) {
        WriteBatch::Op op;
        decode_ok = DecodeOp(&in, &op);
        if (decode_ok) ops.push_back(std::move(op));
      }
      decode_ok = decode_ok && in.empty();
    } else {
      WriteBatch::Op op;
      op.code = code;
      decode_ok = DecodeOpBody(&in, &op) && in.empty();
      if (decode_ok) ops.push_back(std::move(op));
    }
    if (!decode_ok) {
      damaged = true;
      break;
    }

    const uint64_t end_seq = seq + ops.size() - 1;
    if (end_seq <= last_seq_) {
      // Covered by the snapshot (segment straddles the boundary).
      // Snapshots are fenced at group boundaries, so a batch is either
      // fully covered or not at all; a straddling batch would fail the
      // gap check below.
      applied_prefix = reader.valid_prefix_size();
      continue;
    }
    if (seq != last_seq_ + 1) {
      // Sequence gap: records were lost (e.g. an earlier truncated
      // segment). Nothing after this point can be trusted.
      damaged = true;
      break;
    }

    // Validate the whole record against the recovered state first (the
    // same checks the commit path ran), then apply. A CRC-valid record
    // that does not validate is corrupted beyond what framing can detect,
    // or written by a future version — same policy as framing damage: cut
    // here, applying none of it.
    PendingState pending;
    bool valid = true;
    for (const WriteBatch::Op& op : ops) {
      if (!ValidateOpLocked(op, &pending).ok()) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      damaged = true;
      break;
    }
    bool applied = true;
    for (WriteBatch::Op& op : ops) {
      // The decoded ops die with this record: move an added relation into
      // the catalog rather than copying it.
      Status status = op.code == kWalOpAddRelation
                          ? pdb_.AddRelation(std::move(op.relation))
                          : ApplyOpLocked(op);
      if (!status.ok()) {
        applied = false;  // unreachable post-validation; defensive
        break;
      }
    }
    if (!applied) {
      damaged = true;
      break;
    }
    recovery_.replayed_records += ops.size();
    last_seq_ = end_seq;
    applied_prefix = reader.valid_prefix_size();
  }
  if (reader.corruption_detected()) damaged = true;

  uint64_t file_size = contents.size();
  if (damaged || applied_prefix < file_size) {
    // Torn or corrupt tail: truncate to the last applied record so the
    // file re-reads cleanly, and stop — later segments are a suffix with
    // a hole in front of them.
    if (applied_prefix < file_size) {
      PDB_RETURN_NOT_OK(env_->TruncateFile(path, applied_prefix));
      recovery_.truncated_bytes += file_size - applied_prefix;
    }
    recovery_.tail_truncated =
        recovery_.tail_truncated || damaged || applied_prefix < file_size;
    *stop = damaged;
  }
  return Status::OK();
}

Status DurableDatabase::RollWalLocked() {
  if (wal_file_) {
    // Make the old segment's contents durable before abandoning the
    // handle; its records may not have been synced under kNone.
    Status status = wal_file_->Sync();
    if (status.ok()) status = wal_file_->Close();
    if (!status.ok()) return status;
  }
  wal_path_ = JoinPath(dir_, WalName(last_seq_ + 1));
  auto file = env_->NewWritableFile(wal_path_);
  if (!file.ok()) return file.status();
  wal_file_ = std::move(*file);
  wal_.emplace(wal_file_.get(), 0);
  return Status::OK();
}

void DurableDatabase::SetIoErrorLocked(const Status& status) {
  if (io_error_.ok()) io_error_ = status;
}

void DurableDatabase::SetIoError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  SetIoErrorLocked(status);
}

Status DurableDatabase::ValidateOpLocked(const WriteBatch::Op& op,
                                         PendingState* pending) {
  switch (op.code) {
    case kWalOpAddRelation: {
      const std::string& name = op.relation.name();
      if (pdb_.database().HasRelation(name) ||
          pending->new_relations.count(name) != 0) {
        return Status::InvalidArgument("duplicate relation: " + name);
      }
      pending->new_relations.emplace(name, op.relation.schema());
      auto& rows = pending->new_tuples[name];
      for (const Tuple& t : op.relation.tuples()) rows.insert(t);
      return Status::OK();
    }
    case kWalOpInsert: {
      const Schema* schema = nullptr;
      const Relation* live = nullptr;
      auto rel = pdb_.database().Get(op.target);
      if (rel.ok()) {
        live = *rel;
        schema = &live->schema();
      } else {
        auto created = pending->new_relations.find(op.target);
        if (created == pending->new_relations.end()) return rel.status();
        schema = &created->second;
      }
      PDB_RETURN_NOT_OK(schema->Validate(op.tuple));
      auto rows = pending->new_tuples.find(op.target);
      if ((live != nullptr && live->Contains(op.tuple)) ||
          (rows != pending->new_tuples.end() &&
           rows->second.count(op.tuple) != 0)) {
        return Status::InvalidArgument("duplicate tuple in " + op.target);
      }
      if (!(op.p >= 0.0 && op.p <= 1.0)) {
        return Status::OutOfRange("probability outside [0, 1]");
      }
      pending->new_tuples[op.target].insert(op.tuple);
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unknown WAL op code");
  }
}

Status DurableDatabase::ApplyOpLocked(const WriteBatch::Op& op) {
  if (op.code == kWalOpAddRelation) return pdb_.AddRelation(op.relation);
  auto rel = pdb_.database().GetMutable(op.target);
  if (!rel.ok()) return rel.status();
  Status status = (*rel)->AddTuple(op.tuple, op.p);
  if (status.ok()) pdb_.BumpGeneration();
  return status;
}

void DurableDatabase::CommitGroupLocked(const std::vector<Writer*>& group,
                                        bool* want_checkpoint) {
  *want_checkpoint = false;
  if (closed_) {
    Status status = Status::FailedPrecondition("database is closed");
    for (Writer* w : group) w->status = status;
    return;
  }
  if (!io_error_.ok()) {
    Status status = Status::FailedPrecondition(
        "database is read-only after an I/O error: " + io_error_.ToString());
    for (Writer* w : group) w->status = status;
    return;
  }

  // Validate every batch against the catalog plus the accepted effects of
  // the batches ahead of it in the group. A batch with any invalid op is
  // rejected whole — it consumes no sequence numbers, contributes nothing
  // to the log, and later batches are validated as if it never existed.
  // The write-ahead rule holds per batch: an op that cannot apply is never
  // written to the log.
  PendingState pending;
  std::vector<Writer*> accepted;
  for (Writer* w : group) {
    PendingState trial = pending;
    Status status;
    for (const WriteBatch::Op& op : w->batch->ops_) {
      status = ValidateOpLocked(op, &trial);
      if (!status.ok()) break;
    }
    if (status.ok()) {
      pending = std::move(trial);
      accepted.push_back(w);
    } else {
      w->status = status;
    }
  }
  if (accepted.empty()) return;

  // Log: one record per batch (the legacy single-op format when a batch
  // holds exactly one mutation, so old binaries can replay it), then ONE
  // sync for the whole group.
  const uint64_t append_start = io_trace_.NowNs();
  uint64_t next_seq = last_seq_ + 1;
  uint64_t total_mutations = 0;
  uint64_t appended_bytes = 0;
  uint64_t appended_records = 0;
  uint64_t batch_records = 0;
  uint64_t batch_mutations = 0;
  size_t appended_writers = 0;
  Status status;
  for (Writer* w : accepted) {
    const auto& ops = w->batch->ops_;
    std::string payload;
    PutVarint64(&payload, next_seq);
    if (ops.size() == 1) {
      EncodeOp(&payload, ops[0]);
    } else {
      payload.push_back(static_cast<char>(kWalOpWriteBatch));
      PutVarint64(&payload, ops.size());
      for (const WriteBatch::Op& op : ops) EncodeOp(&payload, op);
    }
    status = wal_->AddRecord(payload);
    if (!status.ok()) break;
    ++appended_writers;
    if (ops.size() > 1) {
      ++batch_records;
      batch_mutations += ops.size();
    }
    appended_bytes += payload.size();
    ++appended_records;
    next_seq += ops.size();
    total_mutations += ops.size();
  }
  if (!status.ok()) {
    SetIoErrorLocked(status);
    // Writers at or past the failure point fail truthfully: their record
    // is absent or torn, and recovery truncates a torn tail. But records
    // appended BEFORE the failing one are complete CRC-valid records that
    // recovery WILL replay — those writers must be carried through the
    // group's sync and apply and answered as committed, or a write whose
    // "error" the client retries would silently reappear after restart.
    for (size_t i = appended_writers; i < accepted.size(); ++i) {
      accepted[i]->status = status;
    }
    if (appended_writers == 0) return;
    accepted.resize(appended_writers);
  }
  if (wal_append_spans_.fetch_add(1, std::memory_order_relaxed) <
      kMaxIoSpansPerPhase) {
    io_trace_.RecordSpan(TracePhase::kWalAppend, append_start,
                         io_trace_.NowNs() - append_start,
                         {{"bytes", appended_bytes}});
  }
  wal_records_->Add(appended_records);
  wal_bytes_->Add(appended_bytes);
  wal_batch_records_->Add(batch_records);
  wal_batch_mutations_->Add(batch_mutations);
  group_commits_->Add(1);
  group_size_->Record(total_mutations);

  if (options_.sync_mode == SyncMode::kAlways) {
    const uint64_t sync_start = io_trace_.NowNs();
    status = wal_file_->Sync();
    if (!status.ok()) {
      SetIoErrorLocked(status);
      for (Writer* w : accepted) w->status = status;
      return;
    }
    const uint64_t sync_ns = io_trace_.NowNs() - sync_start;
    wal_sync_seconds_->Record(sync_ns / 1'000);  // microseconds
    if (wal_sync_spans_.fetch_add(1, std::memory_order_relaxed) <
        kMaxIoSpansPerPhase) {
      io_trace_.RecordSpan(TracePhase::kWalSync, sync_start, sync_ns);
    }
    wal_syncs_->Add(1);
  }

  // The write-ahead rule held: every accepted batch is on the log (and
  // durable in kAlways). Applying cannot fail for a validated op; if it
  // somehow does, the in-memory and logged states diverge — poison the
  // handle and fail the rest of the group. The apply step is the one
  // place the shared ProbDatabase mutates while queries may be scanning
  // it, so it runs under the exclusive side of read_mutex(); the WAL
  // append and sync above deliberately do not.
  bool poisoned = false;
  {
    std::unique_lock<std::shared_mutex> apply_lock(apply_mu_);
    for (Writer* w : accepted) {
      if (poisoned) {
        w->status = io_error_;
        continue;
      }
      for (const WriteBatch::Op& op : w->batch->ops_) {
        Status applied = ApplyOpLocked(op);
        if (!applied.ok()) {
          SetIoErrorLocked(Status::Internal(
              "validated op failed to apply after logging: " +
              applied.ToString()));
          w->status = io_error_;
          poisoned = true;
          break;
        }
      }
      if (!poisoned) {
        last_seq_ += w->batch->ops_.size();
        records_since_checkpoint_ += w->batch->ops_.size();
      }
    }
  }
  if (options_.sync_mode == SyncMode::kAlways) last_synced_seq_ = last_seq_;
  last_seq_gauge_->Set(static_cast<int64_t>(last_seq_));
  relations_gauge_->Set(
      static_cast<int64_t>(pdb_.database().RelationNames().size()));
  // io_error_ set above (a mid-group append failure whose prefix still
  // committed) suppresses the trigger: the checkpoint would fail on the
  // read-only handle and, inline, overwrite the prefix's success.
  if (!poisoned && io_error_.ok() && options_.checkpoint_every_n > 0 &&
      records_since_checkpoint_ >= options_.checkpoint_every_n) {
    *want_checkpoint = true;
  }
}

Status DurableDatabase::CommitBatch(WriteBatch* batch) {
  if (batch->ops_.empty()) return Status::OK();
  Writer writer(batch);
  inflight_writers_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> queue_lock(writers_mu_);
  writers_.push_back(&writer);
  writers_cv_.wait(queue_lock,
                   [&] { return writer.done || writers_.front() == &writer; });
  if (writer.done) {
    inflight_writers_.fetch_sub(1, std::memory_order_relaxed);
    return writer.status;
  }

  // Group-commit window (PostgreSQL commit_delay shape): other writers are
  // mid-commit but not yet queued — sleep out the window so they join this
  // group and share its single sync. The wait is unconditional once
  // entered (an early exit on "everyone is queued" misfires: the in-flight
  // count transiently dips while a committed writer hands back, shrinking
  // groups); it releases the queue lock so stragglers can enqueue behind
  // the leader. Without a window the leader still yields its CPU once, so
  // siblings that are runnable but not scheduled (the last group's
  // followers, just woken) enqueue now rather than after this commit: on a
  // box with fewer cores than writers, a leader that holds its core would
  // otherwise commit alone until preempted. A lone writer skips both.
  if (options_.sync_mode == SyncMode::kAlways &&
      writers_.size() < inflight_writers_.load(std::memory_order_relaxed)) {
    if (options_.group_commit_window_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.group_commit_window_us);
      while (writers_cv_.wait_until(queue_lock, deadline) !=
             std::cv_status::timeout) {
      }
    } else {
      queue_lock.unlock();
      std::this_thread::yield();
      queue_lock.lock();
    }
  }

  // Leader (RocksDB JoinBatchGroup shape): adopt every writer currently
  // queued — self included — as one commit group, then log/sync/apply it
  // under mu_ without holding the queue lock, so new arrivals enqueue
  // behind and form the next group.
  std::vector<Writer*> group(writers_.begin(), writers_.end());
  queue_lock.unlock();

  bool want_checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CommitGroupLocked(group, &want_checkpoint);
  }
  if (want_checkpoint) {
    if (options_.background_checkpoints) {
      RequestBackgroundCheckpoint();
    } else {
      // Inline (deterministic) mode: the triggering group pays for the
      // checkpoint, and a failure is reported to every writer whose
      // commit otherwise succeeded — matching the old synchronous path.
      Status status = DoCheckpoint(/*only_if_dirty=*/true);
      if (!status.ok()) {
        for (Writer* w : group) {
          if (w->status.ok()) w->status = status;
        }
      }
    }
  }

  queue_lock.lock();
  writers_.erase(writers_.begin(), writers_.begin() + group.size());
  for (Writer* w : group) w->done = true;
  Status result = writer.status;
  queue_lock.unlock();
  writers_cv_.notify_all();
  inflight_writers_.fetch_sub(1, std::memory_order_relaxed);
  return result;
}

Status DurableDatabase::AddRelation(Relation relation) {
  WriteBatch batch;
  batch.AddRelation(std::move(relation));
  return CommitBatch(&batch);
}

Status DurableDatabase::CreateRelation(const std::string& name,
                                       Schema schema) {
  return AddRelation(Relation(name, std::move(schema)));
}

Status DurableDatabase::Insert(const std::string& relation, Tuple tuple,
                               double p) {
  WriteBatch batch;
  batch.Insert(relation, std::move(tuple), p);
  return CommitBatch(&batch);
}

Status DurableDatabase::ApplyBatch(WriteBatch* batch) {
  return CommitBatch(batch);
}

Status DurableDatabase::InsertMany(
    const std::string& relation,
    std::vector<std::pair<Tuple, double>> rows) {
  WriteBatch batch;
  for (auto& [tuple, p] : rows) {
    batch.Insert(relation, std::move(tuple), p);
  }
  return CommitBatch(&batch);
}

Status DurableDatabase::PrepareCheckpointLocked(CheckpointFence* fence) {
  if (closed_) return Status::FailedPrecondition("database is closed");
  if (!io_error_.ok()) {
    return Status::FailedPrecondition(
        "database is read-only after an I/O error: " + io_error_.ToString());
  }
  fence->seq = last_seq_;

  // Serialize the catalog to records in memory — the only work that has
  // to happen under the commit mutex. The file I/O happens off-lock in
  // WriteCheckpointFence while writers keep committing.
  const Database& db = pdb_.database();
  std::vector<std::string> names = db.RelationNames();
  std::string record;
  PutFixed32(&record, kSnapshotHeaderMagic);
  PutVarint64(&record, kFormatVersion);
  PutVarint64(&record, fence->seq);
  PutVarint64(&record, names.size());
  fence->records.push_back(std::move(record));
  for (const std::string& name : names) {
    record.clear();
    EncodeRelation(&record, *db.Get(name).value());
    fence->records.push_back(std::move(record));
  }
  record.clear();
  PutFixed32(&record, kSnapshotFooterMagic);
  PutVarint64(&record, names.size());
  fence->records.push_back(std::move(record));

  // Roll a fresh segment: writers resume on it immediately, and the sync
  // inside the roll makes everything up to the fence durable — so the
  // fence advances last_synced_seq_ even under kNone. Crash-safe at every
  // point: until the snapshot file is renamed into place below, the old
  // snapshot plus the full segment chain still recovers this exact state.
  Status status = RollWalLocked();
  if (!status.ok()) {
    SetIoErrorLocked(status);
    return status;
  }
  records_since_checkpoint_ = 0;
  last_synced_seq_ = last_seq_;
  return Status::OK();
}

Status DurableDatabase::WriteCheckpointFence(CheckpointFence fence) {
  const uint64_t seq = fence.seq;
  const uint64_t checkpoint_start = io_trace_.NowNs();
  const std::string final_name = SnapshotName(seq);
  const std::string tmp_path = JoinPath(dir_, final_name + ".tmp");

  auto fail = [&](const Status& status) {
    SetIoError(status);
    return status;
  };

  // Write the fenced catalog to a temp file, sync, then atomically
  // rename: a crash at any point leaves either the old state or the new
  // snapshot, never a half-written file under the final name.
  {
    auto file = env_->NewWritableFile(tmp_path);
    if (!file.ok()) return fail(file.status());
    LogWriter writer(file->get());
    Status status;
    for (const std::string& record : fence.records) {
      status = writer.AddRecord(record);
      if (!status.ok()) break;
    }
    if (status.ok()) status = (*file)->Sync();
    if (status.ok()) status = (*file)->Close();
    if (!status.ok()) return fail(status);
  }
  Status renamed = env_->RenameFile(tmp_path, JoinPath(dir_, final_name));
  if (!renamed.ok()) return fail(renamed);

  checkpoints_->Add(1);
  const uint64_t checkpoint_ns = io_trace_.NowNs() - checkpoint_start;
  checkpoint_duration_us_->Add(checkpoint_ns / 1'000);
  io_trace_.RecordSpan(TracePhase::kCheckpoint, checkpoint_start,
                       checkpoint_ns, {{"snapshot_seq", seq}});

  // Retention GC: keep the `retain_checkpoints` newest snapshots (the one
  // just written included) and every WAL segment still needed to recover
  // from the *oldest retained* snapshot; delete everything older. A WAL
  // segment starting at sequence s covers ops s..(next segment's start -
  // 1), so — mirroring recovery's replay-skip rule — it is redundant
  // exactly when the next segment starts at or before oldest_retained + 1.
  const size_t retain =
      options_.retain_checkpoints == 0 ? 1 : options_.retain_checkpoints;
  auto children = env_->GetChildren(dir_);
  if (children.ok()) {
    std::vector<uint64_t> snap_seqs;
    std::vector<uint64_t> wal_seqs;
    for (const std::string& name : *children) {
      uint64_t file_seq = 0;
      if (ParseSeqName(name, "snap-", "", &file_seq)) {
        snap_seqs.push_back(file_seq);
      } else if (ParseSeqName(name, "wal-", ".log", &file_seq)) {
        wal_seqs.push_back(file_seq);
      }
    }
    std::sort(snap_seqs.begin(), snap_seqs.end());
    std::sort(wal_seqs.begin(), wal_seqs.end());
    uint64_t oldest_retained = seq;
    if (snap_seqs.size() > retain) {
      oldest_retained = snap_seqs[snap_seqs.size() - retain];
    } else if (!snap_seqs.empty()) {
      oldest_retained = snap_seqs.front();
    }
    for (const std::string& name : *children) {
      uint64_t file_seq = 0;
      bool remove = false;
      if (ParseSeqName(name, "snap-", "", &file_seq)) {
        remove = file_seq < oldest_retained;
      } else if (ParseSeqName(name, "wal-", ".log", &file_seq)) {
        auto it = std::upper_bound(wal_seqs.begin(), wal_seqs.end(),
                                   file_seq);
        remove = it != wal_seqs.end() && *it <= oldest_retained + 1;
      } else if (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0) {
        // A stray temp from an interrupted checkpoint. The component
        // store's temp stays: a spill may be writing it right now, and the
        // next spill rewrites it anyway.
        remove = name != kWmcStoreTmpName;
      }
      if (remove) {
        Status removed = env_->RemoveFile(JoinPath(dir_, name));
        if (!removed.ok()) return fail(removed);
      }
    }
  }
  return Status::OK();
}

Status DurableDatabase::DoCheckpoint(bool only_if_dirty) {
  // checkpoint_mu_ orders concurrent checkpoints (explicit, auto,
  // background) so fences hit the disk in fence order. It is never taken
  // while holding mu_, so writers are only ever blocked for the fence.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  CheckpointFence fence;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (only_if_dirty && records_since_checkpoint_ == 0) {
      return Status::OK();
    }
    PDB_RETURN_NOT_OK(PrepareCheckpointLocked(&fence));
  }
  return WriteCheckpointFence(std::move(fence));
}

Status DurableDatabase::Checkpoint() {
  return DoCheckpoint(/*only_if_dirty=*/false);
}

void DurableDatabase::RequestBackgroundCheckpoint() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_checkpoint_requested_ = true;
  }
  bg_cv_.notify_all();
}

void DurableDatabase::CheckpointThreadMain() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  for (;;) {
    bg_cv_.wait(lock,
                [&] { return bg_checkpoint_requested_ || bg_stop_; });
    if (bg_stop_) return;
    bg_checkpoint_requested_ = false;
    lock.unlock();
    // Failures latch io_error_ inside; nothing more to do with the status
    // here (the next writer observes the read-only condition).
    Status status = DoCheckpoint(/*only_if_dirty=*/true);
    (void)status;
    lock.lock();
  }
}

Status DurableDatabase::SyncWal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::FailedPrecondition("database is closed");
  if (!io_error_.ok()) return io_error_;
  const uint64_t sync_start = io_trace_.NowNs();
  Status status = wal_file_->Sync();
  if (!status.ok()) {
    SetIoErrorLocked(status);
    return status;
  }
  const uint64_t sync_ns = io_trace_.NowNs() - sync_start;
  wal_sync_seconds_->Record(sync_ns / 1'000);  // microseconds
  if (wal_sync_spans_.fetch_add(1, std::memory_order_relaxed) <
      kMaxIoSpansPerPhase) {
    io_trace_.RecordSpan(TracePhase::kWalSync, sync_start, sync_ns);
  }
  wal_syncs_->Add(1);
  last_synced_seq_ = last_seq_;
  return Status::OK();
}

Status DurableDatabase::SpillWmcCache(const WmcCache& cache) {
  // The store is a cache beside the WAL: writers never wait for a spill,
  // and a failed one leaves the log, and the database, writable.
  std::lock_guard<std::mutex> lock(wmc_store_mu_);
  std::vector<std::pair<WmcCache::Key, double>> entries = cache.Export();

  const std::string tmp_path = JoinPath(dir_, kWmcStoreTmpName);
  auto file = env_->NewWritableFile(tmp_path);
  if (!file.ok()) return file.status();
  LogWriter writer(file->get());
  std::string record;
  PutFixed32(&record, kWmcStoreMagic);
  PutVarint64(&record, kFormatVersion);
  Status status = writer.AddRecord(record);
  for (size_t i = 0; i < entries.size() && status.ok(); i += kWmcBatch) {
    size_t n = std::min(kWmcBatch, entries.size() - i);
    record.clear();
    PutVarint64(&record, n);
    for (size_t j = i; j < i + n; ++j) {
      PutFixed64(&record, entries[j].first.sig.hi);
      PutFixed64(&record, entries[j].first.sig.lo);
      PutFixed64(&record, entries[j].first.weight_fp);
      PutDouble(&record, entries[j].second);
    }
    status = writer.AddRecord(record);
  }
  if (status.ok()) status = (*file)->Sync();
  if (status.ok()) status = (*file)->Close();
  if (status.ok()) {
    status = env_->RenameFile(tmp_path, JoinPath(dir_, kWmcStoreName));
  }
  PDB_RETURN_NOT_OK(status);
  wmc_store_spills_->Add(1);
  wmc_store_entries_->Set(static_cast<int64_t>(entries.size()));
  return Status::OK();
}

Result<uint64_t> DurableDatabase::LoadWmcCache(WmcCache* cache) {
  std::lock_guard<std::mutex> lock(wmc_store_mu_);
  const std::string path = JoinPath(dir_, kWmcStoreName);
  if (!env_->FileExists(path)) return uint64_t{0};
  std::string contents;
  PDB_RETURN_NOT_OK(env_->ReadFileToString(path, &contents));
  LogReader reader(contents);
  std::string record;
  if (!reader.ReadRecord(&record)) return uint64_t{0};  // empty/torn header
  std::string_view in(record);
  uint32_t magic = 0;
  uint64_t version = 0;
  if (!GetFixed32(&in, &magic) || magic != kWmcStoreMagic ||
      !GetVarint64(&in, &version) || version != kFormatVersion) {
    return Status::Corruption("bad component store header: " + path);
  }
  uint64_t loaded = 0;
  // A torn or corrupt tail just ends the load early: the store is a pure
  // cache, so a valid prefix is as good as the whole file.
  while (reader.ReadRecord(&record)) {
    std::string_view body(record);
    uint64_t n = 0;
    if (!GetVarint64(&body, &n)) break;
    bool ok = true;
    for (uint64_t i = 0; i < n && ok; ++i) {
      WmcCache::Key key;
      double value = 0;
      ok = GetFixed64(&body, &key.sig.hi) && GetFixed64(&body, &key.sig.lo) &&
           GetFixed64(&body, &key.weight_fp) && GetDouble(&body, &value);
      if (ok) {
        cache->Insert(key, value);
        ++loaded;
      }
    }
    if (!ok) break;
  }
  wmc_store_loaded_->Add(loaded);
  wmc_store_entries_->Set(static_cast<int64_t>(loaded));
  return loaded;
}

Status DurableDatabase::Close() {
  // Stop the background checkpoint thread first; it takes mu_ itself, so
  // the join must happen before this thread holds it.
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();

  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::OK();
  closed_ = true;
  if (!wal_file_) return Status::OK();
  Status status = wal_file_->Sync();
  if (status.ok()) {
    last_synced_seq_ = last_seq_;
    status = wal_file_->Close();
  }
  wal_.reset();
  wal_file_.reset();
  return status;
}

uint64_t DurableDatabase::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

uint64_t DurableDatabase::last_synced_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_synced_seq_;
}

}  // namespace pdb
