#include "archis/archis.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "archis/planner.h"
#include "common/flight_recorder.h"
#include "common/instruments.h"
#include "common/log.h"
#include "common/parse.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

namespace archis::core {

using minirel::Schema;
using minirel::Table;
using minirel::Tuple;
using minirel::Value;

namespace {

// Records one real abort (explicit, conflict or WAL poison): the
// aggregate counter, its by-reason series and the txn_abort event move
// together.
void RecordAbort(uint64_t txn_id, fr::AbortReason reason) {
  metrics::Get(metrics::kTxnAborts).Inc();
  switch (reason) {
    case fr::AbortReason::kExplicit:
      metrics::Get(metrics::kTxnAbortExplicit).Inc();
      break;
    case fr::AbortReason::kConflict:
      metrics::Get(metrics::kTxnAbortConflict).Inc();
      break;
    case fr::AbortReason::kWalPoison:
      metrics::Get(metrics::kTxnAbortWalPoison).Inc();
      break;
  }
  fr::Record(fr::EventType::kTxnAbort, txn_id, 0,
             static_cast<uint32_t>(reason));
}

}  // namespace

// -- Transaction ---------------------------------------------------------------

Transaction::Transaction(ArchIS* db, uint64_t txn_id, uint64_t begin_seq,
                         bool stamp_at_commit)
    : db_(db),
      txn_id_(txn_id),
      begin_seq_(begin_seq),
      // Unclaimed until first use: Begin() hands the handle out through a
      // Result move anyway, so the claim is made where the handle lands.
      owner_(),
      stamp_at_commit_(stamp_at_commit) {}

Transaction::Transaction(Transaction&& other) noexcept
    : db_(other.db_),
      txn_id_(other.txn_id_),
      begin_seq_(other.begin_seq_),
      begin_drops_(other.begin_drops_),
      changes_(std::move(other.changes_)),
      overlay_(std::move(other.overlay_)),
      // A move releases affinity: the handle stays unclaimed until its
      // first use, so moving into a thread's closure (which runs the move
      // on the spawning thread) hands ownership to the thread that
      // actually uses it.
      owner_(),
      stamp_at_commit_(other.stamp_at_commit_),
      finished_(other.finished_),
      wal_begun_(other.wal_begun_) {
  // The moved-from handle is inert; this one inherits the registration.
  other.finished_ = true;
  other.changes_.clear();
  other.overlay_.clear();
}

Transaction::~Transaction() {
  if (!finished_) {
    // Best-effort: the destructor cannot report, and nothing was applied.
    IgnoreStatus(Abort());
  }
}

Status Transaction::CheckThread() {
  if (owner_ == std::thread::id()) {
    // Freshly moved: whoever touches the handle first owns it from here.
    owner_ = std::this_thread::get_id();
    return Status::OK();
  }
  if (std::this_thread::get_id() != owner_) {
    // A rejected call, not an abort: the transaction stays open for its
    // owner, so nothing is recorded.
    return Status::InvalidArgument(
        "Transaction is single-thread-affine: only the owning thread may "
        "use it — move the handle to hand it to another thread");
  }
  return Status::OK();
}

Status Transaction::Insert(const std::string& relation, const Tuple& row) {
  if (finished_) return Status::Aborted("transaction already finished");
  ARCHIS_RETURN_NOT_OK(CheckThread());
  return db_->TxnInsert(this, relation, row);
}

Status Transaction::Update(const std::string& relation,
                           const std::vector<Value>& key,
                           const Tuple& new_row) {
  if (finished_) return Status::Aborted("transaction already finished");
  ARCHIS_RETURN_NOT_OK(CheckThread());
  return db_->TxnUpdate(this, relation, key, new_row);
}

Status Transaction::Delete(const std::string& relation,
                           const std::vector<Value>& key) {
  if (finished_) return Status::Aborted("transaction already finished");
  ARCHIS_RETURN_NOT_OK(CheckThread());
  return db_->TxnDelete(this, relation, key);
}

Status Transaction::Commit() {
  if (finished_) return Status::Aborted("transaction already finished");
  ARCHIS_RETURN_NOT_OK(CheckThread());
  finished_ = true;
  return db_->CommitTxn(this);
}

Status Transaction::Abort() {
  // No thread check: destructors may run on any thread, and the abort
  // protocol is fully serialized under the commit lock anyway.
  if (finished_) return Status::Aborted("transaction already finished");
  finished_ = true;
  return db_->AbortTxn(this);
}

// -- Construction / recovery ---------------------------------------------------

// Crash-dump contributor: renders this instance's active-transaction table
// and commit sequence into the `.crashdump` JSON. Best-effort by design —
// if the crashing thread died holding commit_mu_, TryLock fails and the
// source reports "unavailable" instead of deadlocking the signal handler.
class ArchIS::CrashSource : public fr::CrashInfoSource {
 public:
  explicit CrashSource(ArchIS* db) : db_(db) {}

  void AppendCrashJson(std::string* out) override {
    if (!db_->commit_mu_.TryLock()) {
      out->append("{\"active_txns\":\"unavailable\"}");
      return;
    }
    out->append("{\"active_txns\":[");
    bool first = true;
    for (uint64_t id : db_->open_txns_) {
      if (!first) out->push_back(',');
      first = false;
      out->append(std::to_string(id));
    }
    out->append("],\"commit_seq\":");
    out->append(std::to_string(db_->commit_seq_));
    out->push_back('}');
    db_->commit_mu_.Unlock();
  }

 private:
  ArchIS* db_;
};

ArchIS::ArchIS(ArchISOptions options, Date start_date)
    : crash_source_(std::make_unique<CrashSource>(this)),
      options_(std::move(options)), clock_(start_date),
      archiver_(&history_db_) {
  fr::InstallCrashHandler();
  fr::RegisterCrashInfoSource(crash_source_.get());
}

ArchIS::~ArchIS() { fr::UnregisterCrashInfoSource(crash_source_.get()); }

std::string ArchIS::DumpTrace() {
  return fr::ToChromeTraceJson(fr::Snapshot());
}

Result<std::unique_ptr<ArchIS>> ArchIS::Open(ArchISOptions options,
                                             Date start_date) {
  if (options.wal.path.empty()) {
    return std::make_unique<ArchIS>(std::move(options), start_date);
  }
  const std::string wal_path = options.wal.path;
  const WalOptions wal_options = options.wal;
  // Manifest first (bounded recovery, DESIGN.md §10/§13): restore the
  // snapshot, then replay only the commits past it.
  LoadedCheckpoint loaded = LoadCheckpoint(wal_path);
  if (loaded.fell_back) {
    metrics::Get(metrics::kCheckpointManifestFallbacks).Inc();
  }
  ARCHIS_ASSIGN_OR_RETURN(WalRecovery recovery, Wal::Recover(wal_path));
  auto db = std::make_unique<ArchIS>(std::move(options), start_date);
  // Commits the manifest absorbed; replay skips them.
  uint64_t absorbed_seq = 0;
  bool filter_by_seq = false;
  uint64_t manifest_next_txn_id = 0;
  if (loaded.manifest.has_value()) {
    const CheckpointManifest& manifest = *loaded.manifest;
    if (recovery.has_checkpoint_marker &&
        recovery.checkpoint_seq > manifest.seq) {
      return Status::Corruption(
          "WAL was truncated by checkpoint " +
          std::to_string(recovery.checkpoint_seq) +
          " but the newest readable manifest is seq " +
          std::to_string(manifest.seq));
    }
    ARCHIS_RETURN_NOT_OK(db->RestoreFromCheckpoint(manifest));
    db->checkpoint_seq_ = manifest.seq;
    manifest_next_txn_id = manifest.next_txn_id;
    if (db->clock_ < Date(manifest.clock_days)) {
      db->clock_ = Date(manifest.clock_days);
    }
    // Fuzzy manifests absorb a commit-sequence prefix, not a log prefix:
    // a commit whose frames straddle the capture point replays by its
    // sequence number regardless of where its bytes sit.
    filter_by_seq = true;
    absorbed_seq = manifest.absorbed_commit_seq;
    // The decoded rows are in the stores now; free them before replay.
    loaded.manifest.reset();
  } else if (recovery.has_checkpoint_marker) {
    return Status::Corruption(
        "WAL was truncated by checkpoint " +
        std::to_string(recovery.checkpoint_seq) +
        " but no checkpoint manifest is readable");
  }
  const auto item_commit_seq = [](const WalReplayItem& item) -> uint64_t {
    if (const auto* create = std::get_if<WalCreateRelation>(&item)) {
      return create->commit_seq;
    }
    if (const auto* drop = std::get_if<WalDropRelation>(&item)) {
      return drop->commit_seq;
    }
    return std::get<WalCommittedTxn>(item).commit_seq;
  };
  size_t replayed_items = 0;
  uint64_t first_replayed_offset = recovery.valid_bytes;
  for (size_t i = 0; i < recovery.items.size(); ++i) {
    const WalReplayItem& item = recovery.items[i];
    if (filter_by_seq && item_commit_seq(item) <= absorbed_seq) continue;
    if (replayed_items == 0) first_replayed_offset = recovery.item_offsets[i];
    ++replayed_items;
    if (const auto* create = std::get_if<WalCreateRelation>(&item)) {
      ARCHIS_RETURN_NOT_OK(db->CreateRelationInternal(
          create->spec, create->open_date, /*log_to_wal=*/false));
      if (db->clock_ < create->open_date) db->clock_ = create->open_date;
    } else if (const auto* drop = std::get_if<WalDropRelation>(&item)) {
      ARCHIS_RETURN_NOT_OK(db->DropRelationInternal(drop->name, drop->when,
                                                    /*log_to_wal=*/false));
      if (db->clock_ < drop->when) db->clock_ = drop->when;
    } else {
      const auto& txn = std::get<WalCommittedTxn>(item);
      ARCHIS_RETURN_NOT_OK(db->ApplyRecovered(txn));
      if (db->clock_ < txn.commit_date) db->clock_ = txn.commit_date;
    }
  }
  {
    MutexLock lock(db->commit_mu_);
    db->commit_seq_ = std::max(absorbed_seq, recovery.max_commit_seq);
  }
  const uint64_t replayed_bytes = recovery.valid_bytes - first_replayed_offset;
  // Drop the torn tail so the resumed log is a clean extension of the
  // prefix recovery just replayed.
  ARCHIS_RETURN_NOT_OK(
      storage::TruncateLogFile(wal_path, recovery.valid_bytes));
  uint64_t next_txn_id = recovery.max_txn_id + 1;
  if (next_txn_id < manifest_next_txn_id) next_txn_id = manifest_next_txn_id;
  ARCHIS_ASSIGN_OR_RETURN(db->wal_, Wal::Open(wal_options, next_txn_id));
  db->last_recovery_replayed_bytes_ = replayed_bytes;
  metrics::Get(metrics::kWalRecoveries).Inc();
  metrics::Get(metrics::kWalRecoveredItems).Inc(replayed_items);
  metrics::Get(metrics::kWalRecoveredBytes).Inc(replayed_bytes);
  logging::Info("wal.recovered")
      .Kv("path", wal_path)
      .Kv("items", replayed_items)
      .Kv("skipped_items", recovery.items.size() - replayed_items)
      .Kv("valid_bytes", recovery.valid_bytes)
      .Kv("replayed_bytes", replayed_bytes)
      .Kv("checkpoint_seq", db->checkpoint_seq_)
      .Kv("manifest_fallback", loaded.fell_back)
      .Kv("next_txn_id", next_txn_id)
      .Kv("clock", db->clock_.ToString());
  return db;
}

Status ArchIS::CheckWritable() const {
  if (!options_.wal.path.empty() && wal_ == nullptr) {
    return Status::InvalidArgument(
        "WAL-configured ArchIS must be created with ArchIS::Open (recovery "
        "has not run)");
  }
  return Status::OK();
}

// -- Schema --------------------------------------------------------------------

Status ArchIS::CreateRelation(const RelationSpec& spec) {
  ARCHIS_RETURN_NOT_OK(CheckWritable());
  return CreateRelationInternal(spec, clock_, /*log_to_wal=*/true);
}

Status ArchIS::CreateRelationInternal(RelationSpec spec, Date open_date,
                                      bool log_to_wal) {
  if (spec.root_tag.empty()) spec.root_tag = spec.name;
  if (spec.entity_tag.empty()) {
    spec.entity_tag = spec.root_tag;
    if (!spec.entity_tag.empty() && spec.entity_tag.back() == 's') {
      spec.entity_tag.pop_back();
    }
  }
  if (spec.doc_name.empty()) {
    return Status::InvalidArgument("RelationSpec::doc_name must be set");
  }
  // DDL serializes against commits: it mutates the catalog the commit
  // apply path reads, and its WAL record takes a commit sequence number.
  MutexLock lock(commit_mu_);
  // A dropped relation's history stays archived under its name, so the
  // name cannot come back. Refuse before anything exists: a current table
  // left behind would accept logged DML that recovery cannot replay.
  if (archiver_.htables(spec.name).ok()) {
    return Status::AlreadyExists("relation '" + spec.name +
                                 "' already archived");
  }
  RelationInfo info;
  info.key_columns = spec.key_columns;
  for (const std::string& k : spec.key_columns) {
    ARCHIS_ASSIGN_OR_RETURN(size_t pos, spec.schema.ColumnIndex(k));
    info.key_positions.push_back(pos);
  }
  info.doc.relation = spec.name;
  info.doc.root_tag = spec.root_tag;
  info.doc.entity_tag = spec.entity_tag;
  info.doc_name = spec.doc_name;
  ARCHIS_ASSIGN_OR_RETURN(
      Table * table, current_db_.catalog().CreateTable(spec.name, spec.schema));
  Status created = table->CreateIndex("pk", spec.key_columns);
  if (created.ok()) {
    created = archiver_.RegisterRelation(spec.name, spec.schema,
                                         spec.key_columns, options_.segment,
                                         open_date);
  }
  if (!created.ok()) {
    // Roll back; the failure that is returned is the one that matters.
    IgnoreStatus(current_db_.catalog().DropTable(spec.name));
    return created;
  }
  relations_[spec.name] = std::move(info);
  InvalidatePlanCache();
  if (log_to_wal && wal_ != nullptr) {
    const uint64_t seq = ++commit_seq_;
    return wal_->LogCreateRelation(spec, open_date, seq);
  }
  return Status::OK();
}

Status ArchIS::DropRelation(const std::string& name) {
  ARCHIS_RETURN_NOT_OK(CheckWritable());
  return DropRelationInternal(name, clock_, /*log_to_wal=*/true);
}

Status ArchIS::DropRelationInternal(const std::string& name, Date when,
                                    bool log_to_wal) {
  MutexLock lock(commit_mu_);
  if (relations_.count(name) == 0) {
    return Status::NotFound("relation '" + name + "'");
  }
  ARCHIS_RETURN_NOT_OK(current_db_.catalog().DropTable(name));
  ++relations_dropped_;
  ARCHIS_RETURN_NOT_OK(archiver_.UnregisterRelation(name, when));
  InvalidatePlanCache();
  if (log_to_wal && wal_ != nullptr) {
    const uint64_t seq = ++commit_seq_;
    return wal_->LogDropRelation(name, when, seq);
  }
  return Status::OK();
}

// -- Transaction clock ---------------------------------------------------------

Status ArchIS::AdvanceClock(Date now) {
  // Open transactions don't pin the clock: a transaction's changes are
  // stamped with the clock at its *commit* instant, so moving the clock
  // mid-transaction just means the batch commits at the newer time.
  MutexLock lock(commit_mu_);
  if (now < clock_) {
    return Status::InvalidArgument(
        "transaction time cannot move backwards (" + now.ToString() + " < " +
        clock_.ToString() + ")");
  }
  clock_ = now;
  return Status::OK();
}

// -- DML -----------------------------------------------------------------------

Result<Transaction> ArchIS::Begin() {
  return BeginInternal(/*stamp_at_commit=*/true);
}

Result<Transaction> ArchIS::BeginInternal(bool stamp_at_commit) {
  ARCHIS_RETURN_NOT_OK(CheckWritable());
  MutexLock lock(commit_mu_);
  if (open_txns_.size() >= options_.max_open_transactions) {
    return Status::InvalidArgument(
        "too many open transactions (max_open_transactions = " +
        std::to_string(options_.max_open_transactions) + ")");
  }
  const uint64_t txn_id = wal_ != nullptr ? wal_->NextTxnId() : next_txn_id_++;
  open_txns_.insert(txn_id);
  fr::Record(fr::EventType::kTxnBegin, txn_id);
  Transaction txn(this, txn_id, commit_seq_, stamp_at_commit);
  txn.begin_drops_ = relations_dropped_;
  return txn;
}

Result<Transaction*> ArchIS::AmbientTxn() {
  if (!ambient_) {
    // The ambient batch keeps per-statement dates: its statements may span
    // clock advances (an update log accumulated over time), so re-stamping
    // them at commit would rewrite history.
    ARCHIS_ASSIGN_OR_RETURN(Transaction txn,
                            BeginInternal(/*stamp_at_commit=*/false));
    ambient_ = std::make_unique<Transaction>(std::move(txn));
  }
  return ambient_.get();
}

Status ArchIS::Insert(const std::string& relation, const Tuple& row) {
  ARCHIS_RETURN_NOT_OK(CheckWritable());
  if (options_.capture_mode == CaptureMode::kUpdateLog) {
    ARCHIS_ASSIGN_OR_RETURN(Transaction * txn, AmbientTxn());
    return txn->Insert(relation, row);
  }
  ARCHIS_ASSIGN_OR_RETURN(Transaction txn,
                          BeginInternal(/*stamp_at_commit=*/true));
  ARCHIS_RETURN_NOT_OK(txn.Insert(relation, row));
  return txn.Commit();
}

Status ArchIS::Update(const std::string& relation,
                      const std::vector<Value>& key, const Tuple& new_row) {
  ARCHIS_RETURN_NOT_OK(CheckWritable());
  if (options_.capture_mode == CaptureMode::kUpdateLog) {
    ARCHIS_ASSIGN_OR_RETURN(Transaction * txn, AmbientTxn());
    return txn->Update(relation, key, new_row);
  }
  ARCHIS_ASSIGN_OR_RETURN(Transaction txn,
                          BeginInternal(/*stamp_at_commit=*/true));
  ARCHIS_RETURN_NOT_OK(txn.Update(relation, key, new_row));
  return txn.Commit();
}

Status ArchIS::Delete(const std::string& relation,
                      const std::vector<Value>& key) {
  ARCHIS_RETURN_NOT_OK(CheckWritable());
  if (options_.capture_mode == CaptureMode::kUpdateLog) {
    ARCHIS_ASSIGN_OR_RETURN(Transaction * txn, AmbientTxn());
    return txn->Delete(relation, key);
  }
  ARCHIS_ASSIGN_OR_RETURN(Transaction txn,
                          BeginInternal(/*stamp_at_commit=*/true));
  ARCHIS_RETURN_NOT_OK(txn.Delete(relation, key));
  return txn.Commit();
}

Status ArchIS::Commit() {
  if (!ambient_) return Status::OK();
  std::unique_ptr<Transaction> txn = std::move(ambient_);
  return txn->Commit();
}

size_t ArchIS::pending_changes() const {
  return ambient_ ? ambient_->pending() : 0;
}

// -- Transaction plumbing ------------------------------------------------------

Result<storage::RecordId> ArchIS::FindByKey(
    Table* table, const RelationInfo& info, const std::vector<Value>& key,
    Tuple* row) const {
  if (key.size() != info.key_positions.size()) {
    return Status::InvalidArgument("key arity mismatch");
  }
  const minirel::TableIndex* idx = table->GetIndex("pk");
  std::optional<storage::RecordId> found;
  ARCHIS_RETURN_NOT_OK(table->IndexScan(
      *idx, key, key, [&](const storage::RecordId& rid, const Tuple& t) {
        found = rid;
        *row = t;
        return false;
      }));
  if (!found) return Status::NotFound("no current row with that key");
  return *found;
}

std::vector<Value> ArchIS::KeyOf(const RelationInfo& info, const Tuple& row) {
  std::vector<Value> key;
  key.reserve(info.key_positions.size());
  for (size_t pos : info.key_positions) key.push_back(row.at(pos));
  return key;
}

std::string ArchIS::WriteSetKey(const std::string& relation,
                                const std::vector<Value>& key) {
  std::string out = relation;
  out.push_back('\0');
  EncodeTuple(Tuple(key), &out);
  return out;
}

std::string ArchIS::DisplayKey(const std::string& relation,
                               const std::vector<Value>& key) {
  std::string out = relation + "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ", ";
    out += key[i].ToString();
  }
  out += ")";
  return out;
}

std::string ArchIS::DisplayWriteSetKey(const std::string& wkey) {
  const size_t nul = wkey.find('\0');
  size_t pos = 0;
  Result<Tuple> key =
      DecodeTuple(std::string_view(wkey).substr(nul + 1), &pos);
  // The key was encoded by WriteSetKey in this process; a failed decode
  // can only mean a bug, and the message still names the relation.
  return DisplayKey(wkey.substr(0, nul), key.ok() ? key->values()
                                                  : std::vector<Value>{});
}

Status ArchIS::BufferChange(Transaction* txn, std::string wkey,
                            ChangeRecord change, storage::RecordId found) {
  if (wal_ != nullptr) {
    if (!txn->wal_begun_) {
      ARCHIS_RETURN_NOT_OK(wal_->EnqueueBegin(txn->txn_id_));
      txn->wal_begun_ = true;
    }
    ARCHIS_RETURN_NOT_OK(wal_->EnqueueChange(txn->txn_id_, change));
  }
  auto [it, fresh] = txn->overlay_.try_emplace(std::move(wkey));
  Transaction::OverlayEntry& entry = it->second;
  // Only the key's first statement reads the committed row; later ones
  // see this transaction's own writes, and the first one's rid rides on.
  if (fresh) entry.rid = found;
  entry.latest = txn->changes_.size();
  txn->changes_.push_back({std::move(change), &entry});
  return Status::OK();
}

Status ArchIS::TxnInsert(Transaction* txn, const std::string& relation,
                         const Tuple& row) {
  auto info = relations_.find(relation);
  if (info == relations_.end()) {
    return Status::NotFound("relation '" + relation + "'");
  }
  MutexLock lock(commit_mu_);
  ARCHIS_ASSIGN_OR_RETURN(Table * table,
                          current_db_.catalog().GetTable(relation));
  // Validate against the schema now — the deferred apply at commit must
  // not be the first place a malformed row surfaces.
  ARCHIS_RETURN_NOT_OK(row.CheckSchema(table->schema()));
  const std::vector<Value> key = KeyOf(info->second, row);
  std::string wkey = WriteSetKey(relation, key);
  bool visible = false;
  auto ov = txn->overlay_.find(wkey);
  if (ov != txn->overlay_.end()) {
    visible = txn->PendingRow(ov->second) != nullptr;
  } else {
    Tuple existing;
    Result<storage::RecordId> rid = FindByKey(table, info->second, key,
                                              &existing);
    if (rid.ok()) {
      visible = true;
    } else if (rid.status().code() != StatusCode::kNotFound) {
      return rid.status();
    }
  }
  if (visible) {
    return Status::AlreadyExists("a current row with key " +
                                 DisplayKey(relation, key) +
                                 " already exists");
  }
  ChangeRecord change;
  change.kind = ChangeKind::kInsert;
  change.relation = relation;
  change.new_row = row;
  change.when = clock_;
  return BufferChange(txn, std::move(wkey), std::move(change), {});
}

Status ArchIS::TxnUpdate(Transaction* txn, const std::string& relation,
                         const std::vector<Value>& key, const Tuple& new_row) {
  auto info = relations_.find(relation);
  if (info == relations_.end()) {
    return Status::NotFound("relation '" + relation + "'");
  }
  if (key.size() != info->second.key_positions.size()) {
    return Status::InvalidArgument("key arity mismatch");
  }
  MutexLock lock(commit_mu_);
  ARCHIS_ASSIGN_OR_RETURN(Table * table,
                          current_db_.catalog().GetTable(relation));
  ARCHIS_RETURN_NOT_OK(new_row.CheckSchema(table->schema()));
  std::string wkey = WriteSetKey(relation, key);
  Tuple old_row;
  storage::RecordId found;
  auto ov = txn->overlay_.find(wkey);
  if (ov != txn->overlay_.end()) {
    const Tuple* pending = txn->PendingRow(ov->second);
    if (pending == nullptr) {
      return Status::NotFound("no current row with that key");
    }
    old_row = *pending;
  } else {
    ARCHIS_ASSIGN_OR_RETURN(found,
                            FindByKey(table, info->second, key, &old_row));
  }
  // Keys are invariant in history (Section 3).
  for (size_t i = 0; i < key.size(); ++i) {
    if (!(new_row.at(info->second.key_positions[i]) == key[i])) {
      return Status::InvalidArgument("key columns must not change");
    }
  }
  ChangeRecord change;
  change.kind = ChangeKind::kUpdate;
  change.relation = relation;
  change.old_row = std::move(old_row);
  change.new_row = new_row;
  change.when = clock_;
  return BufferChange(txn, std::move(wkey), std::move(change), found);
}

Status ArchIS::TxnDelete(Transaction* txn, const std::string& relation,
                         const std::vector<Value>& key) {
  auto info = relations_.find(relation);
  if (info == relations_.end()) {
    return Status::NotFound("relation '" + relation + "'");
  }
  if (key.size() != info->second.key_positions.size()) {
    return Status::InvalidArgument("key arity mismatch");
  }
  MutexLock lock(commit_mu_);
  ARCHIS_ASSIGN_OR_RETURN(Table * table,
                          current_db_.catalog().GetTable(relation));
  std::string wkey = WriteSetKey(relation, key);
  Tuple old_row;
  storage::RecordId found;
  auto ov = txn->overlay_.find(wkey);
  if (ov != txn->overlay_.end()) {
    const Tuple* pending = txn->PendingRow(ov->second);
    if (pending == nullptr) {
      return Status::NotFound("no current row with that key");
    }
    old_row = *pending;
  } else {
    ARCHIS_ASSIGN_OR_RETURN(found,
                            FindByKey(table, info->second, key, &old_row));
  }
  ChangeRecord change;
  change.kind = ChangeKind::kDelete;
  change.relation = relation;
  change.old_row = std::move(old_row);
  change.when = clock_;
  return BufferChange(txn, std::move(wkey), std::move(change), found);
}

void ArchIS::UnregisterTxnLocked(uint64_t txn_id) {
  open_txns_.erase(txn_id);
  // The last transaction out clears the committed-writer index: with no
  // open transaction left, nothing can conflict with those entries, and
  // every future Begin starts at the current commit sequence anyway.
  if (open_txns_.empty()) key_last_writer_.clear();
}

Status ArchIS::ApplyCommitted(const ChangeRecord& change,
                              storage::RecordId* rid) {
  auto info = relations_.find(change.relation);
  if (info == relations_.end()) {
    return Status::Internal("commit apply for unknown relation '" +
                            change.relation + "'");
  }
  ARCHIS_ASSIGN_OR_RETURN(Table * table,
                          current_db_.catalog().GetTable(change.relation));
  if (change.kind == ChangeKind::kInsert) {
    ARCHIS_ASSIGN_OR_RETURN(*rid, table->Insert(change.new_row));
  } else {
    // A carried rid still holds change.old_row: a commit that touched the
    // key since would have aborted this one as a conflict.
    Tuple stored;
    const Tuple* old_row = &change.old_row;
    if (!rid->valid()) {
      ARCHIS_ASSIGN_OR_RETURN(
          *rid, FindByKey(table, info->second,
                          KeyOf(info->second, change.old_row), &stored));
      old_row = &stored;
    }
    if (change.kind == ChangeKind::kUpdate) {
      ARCHIS_RETURN_NOT_OK(table->Update(rid, *old_row, change.new_row));
    } else {
      ARCHIS_RETURN_NOT_OK(table->Delete(*rid));
      *rid = storage::RecordId{};
    }
  }
  return archiver_.Apply(change);
}

Status ArchIS::CommitTxn(Transaction* txn) {
  if (txn->changes_.empty()) {
    MutexLock lock(commit_mu_);
    if (wal_ != nullptr && txn->wal_begun_) {
      IgnoreStatus(wal_->EnqueueAbort(txn->txn_id_));
    }
    UnregisterTxnLocked(txn->txn_id_);
    return Status::OK();
  }
  const size_t nchanges = txn->changes_.size();
  metrics::Stage commit(metrics::StageId::kCommit);
  uint64_t ticket = 0;
  {
    MutexLock lock(commit_mu_);
    // First committer wins: any key this transaction wrote that a later
    // commit also wrote is a lost update waiting to happen — reject.
    for (const auto& [wkey, entry] : txn->overlay_) {
      auto it = key_last_writer_.find(wkey);
      if (it != key_last_writer_.end() && it->second > txn->begin_seq_) {
        if (wal_ != nullptr && txn->wal_begun_) {
          IgnoreStatus(wal_->EnqueueAbort(txn->txn_id_));
        }
        UnregisterTxnLocked(txn->txn_id_);
        // Conflict-aborted commits keep their latency and CHANGE-count
        // attribution (outcome=conflict) instead of vanishing.
        const std::string display = DisplayWriteSetKey(wkey);
        metrics::Stage(metrics::StageId::kCommitConflict, nullptr,
                       commit.start())
            .Close(txn->txn_id_, 0, display);
        metrics::Get(metrics::kChangesCapturedConflict).Inc(nchanges);
        RecordAbort(txn->txn_id_, fr::AbortReason::kConflict);
        return Status::Conflict(
            "write-write conflict on " + display +
            ": a concurrent transaction committed this key first");
      }
    }
    // A relation dropped since this transaction wrote to it has no current
    // table to apply to. Refuse before the COMMIT frame is enqueued: a
    // logged commit that cannot apply fails every later recovery too.
    if (txn->begin_drops_ != relations_dropped_) {
      for (const Transaction::PendingChange& p : txn->changes_) {
        if (current_db_.catalog().GetTable(p.change.relation).ok()) continue;
        if (wal_ != nullptr && txn->wal_begun_) {
          IgnoreStatus(wal_->EnqueueAbort(txn->txn_id_));
        }
        UnregisterTxnLocked(txn->txn_id_);
        RecordAbort(txn->txn_id_, fr::AbortReason::kConflict);
        return Status::Conflict("relation '" + p.change.relation +
                                "' was dropped after this transaction "
                                "wrote to it");
      }
    }
    // One transaction, one transaction-time instant: the clock at commit.
    if (txn->stamp_at_commit_) {
      for (Transaction::PendingChange& p : txn->changes_) {
        p.change.when = clock_;
      }
    }
    const uint64_t seq = commit_seq_ + 1;
    if (wal_ != nullptr) {
      // Enqueued under the commit lock, so log order equals commit order;
      // the durability wait happens outside it (group commit).
      Result<uint64_t> enq = wal_->EnqueueCommit(
          txn->txn_id_, clock_, txn->stamp_at_commit_, seq);
      if (!enq.ok()) {
        UnregisterTxnLocked(txn->txn_id_);
        RecordAbort(txn->txn_id_, fr::AbortReason::kWalPoison);
        return enq.status();
      }
      ticket = *enq;
    }
    if (txn->begin_drops_ != relations_dropped_) {
      // A drop since Begin freed a table's pages, which later tables may
      // reuse: carried record ids could name another row. Look them up.
      for (auto& [wkey, entry] : txn->overlay_) entry.rid = {};
    }
    Status applied = Status::OK();
    for (Transaction::PendingChange& p : txn->changes_) {
      applied = ApplyCommitted(p.change, &p.entry->rid);
      if (!applied.ok()) break;
    }
    if (!applied.ok()) {
      UnregisterTxnLocked(txn->txn_id_);
      return applied;
    }
    commit_seq_ = seq;
    // Only a transaction open now can have begun before this commit, so
    // only then can these keys conflict with anything.
    if (open_txns_.size() > 1) {
      for (const auto& [wkey, entry] : txn->overlay_) {
        key_last_writer_[wkey] = seq;
      }
    }
    UnregisterTxnLocked(txn->txn_id_);
  }
  if (wal_ != nullptr) {
    Status durable = wal_->WaitDurable(ticket);
    if (!durable.ok()) {
      RecordAbort(txn->txn_id_, fr::AbortReason::kWalPoison);
      return durable;
    }
  }
  InvalidatePlanCache();
  // Closed only after WaitDurable succeeds: every txn_commit event in a
  // crash dump must name a transaction the WAL will recover as committed.
  commit.Close(txn->txn_id_, static_cast<uint32_t>(nchanges));
  metrics::Get(metrics::kChangesCaptured).Inc(nchanges);
  MaybeAutoCheckpoint();
  return Status::OK();
}

Status ArchIS::AbortTxn(Transaction* txn) {
  MutexLock lock(commit_mu_);
  if (wal_ != nullptr && txn->wal_begun_) {
    // Best-effort: the frame rides out with the next durable batch. A
    // lost ABORT is harmless — recovery discards uncommitted frames.
    IgnoreStatus(wal_->EnqueueAbort(txn->txn_id_));
  }
  UnregisterTxnLocked(txn->txn_id_);
  // Like an empty commit, an empty abort discarded nothing: not recorded.
  if (!txn->changes_.empty()) {
    RecordAbort(txn->txn_id_, fr::AbortReason::kExplicit);
  }
  txn->changes_.clear();
  txn->overlay_.clear();
  return Status::OK();
}

// -- Recovery replay -----------------------------------------------------------

Status ArchIS::ApplyRecovered(const WalCommittedTxn& txn) {
  MutexLock lock(commit_mu_);
  for (const ChangeRecord& change : txn.changes) {
    ARCHIS_RETURN_NOT_OK(ReplayChange(change));
  }
  InvalidatePlanCache();
  return Status::OK();
}

Status ArchIS::ReplayChange(const ChangeRecord& change) {
  auto info = relations_.find(change.relation);
  if (info == relations_.end()) {
    return Status::Corruption("recovered change for unknown relation '" +
                              change.relation + "'");
  }
  ARCHIS_ASSIGN_OR_RETURN(Table * table,
                          current_db_.catalog().GetTable(change.relation));
  switch (change.kind) {
    case ChangeKind::kInsert: {
      Tuple existing;
      auto rid = FindByKey(table, info->second,
                           KeyOf(info->second, change.new_row), &existing);
      if (rid.ok()) return Status::OK();  // already applied
      if (rid.status().code() != StatusCode::kNotFound) return rid.status();
      ARCHIS_RETURN_NOT_OK(table->Insert(change.new_row).status());
      break;
    }
    case ChangeKind::kUpdate: {
      Tuple existing;
      ARCHIS_ASSIGN_OR_RETURN(
          storage::RecordId rid,
          FindByKey(table, info->second, KeyOf(info->second, change.new_row),
                    &existing));
      if (existing == change.new_row) return Status::OK();  // already applied
      ARCHIS_RETURN_NOT_OK(table->Update(&rid, existing, change.new_row));
      break;
    }
    case ChangeKind::kDelete: {
      Tuple existing;
      auto rid = FindByKey(table, info->second,
                           KeyOf(info->second, change.old_row), &existing);
      if (!rid.ok()) {
        if (rid.status().code() == StatusCode::kNotFound) {
          return Status::OK();  // already applied
        }
        return rid.status();
      }
      ARCHIS_RETURN_NOT_OK(table->Delete(*rid));
      break;
    }
  }
  return archiver_.Apply(change);
}

// -- Checkpointing -------------------------------------------------------------

Status ArchIS::Checkpoint(CheckpointCrashPoint crash_point) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "Checkpoint requires a WAL-backed instance (in-memory instances "
        "have nothing to truncate)");
  }
  metrics::Stage checkpoint(metrics::StageId::kCheckpoint);
  MutexLock ckpt_lock(checkpoint_mu_);
  CheckpointManifest header;
  std::string encoded;
  uint64_t manifest_rows = 0;
  size_t relations = 0;
  {
    // checkpoint_mu_ -> commit_mu_ is the one true order (ranks 3 -> 5,
    // enforced at runtime by LockRank).
    MutexLock lock(commit_mu_);
    // Capture barrier: everything enqueued so far becomes durable before
    // the capture, so the manifest never absorbs a commit the log could
    // still lose. No quiesce — open transactions keep their handles; their
    // uncommitted changes are simply not in any table yet.
    ARCHIS_RETURN_NOT_OK(wal_->FlushDurable());
    header.seq = checkpoint_seq_ + 1;
    fr::Record(fr::EventType::kCheckpointPhase, header.seq, 0, 0, "capture");
    header.clock_days = clock_.days();
    header.next_txn_id = wal_->PeekNextTxnId();
    header.absorbed_commit_seq = commit_seq_;
    header.active_txn_ids.assign(open_txns_.begin(), open_txns_.end());
    CheckpointWriter writer(header);
    for (const Archiver::RelationEntry& entry : archiver_.relations()) {
      ARCHIS_RETURN_NOT_OK(
          CaptureRelation(entry.name, entry.interval, &writer));
    }
    relations = archiver_.relations().size();
    manifest_rows = writer.rows();
    encoded = std::move(writer).Finish();
  }
  fr::Record(fr::EventType::kCheckpointPhase, header.seq, 0, 0, "install");
  ARCHIS_RETURN_NOT_OK(
      InstallCheckpointManifest(options_.wal.path, encoded, crash_point));
  checkpoint_seq_ = header.seq;
  if (crash_point == CheckpointCrashPoint::kBeforeWalReset) {
    return Status::IOError("injected crash before WAL reset");
  }
  // The WAL can only be truncated when nothing is in flight: no open
  // transaction (their BEGIN/CHANGE frames must survive) and no commit
  // past the capture. Otherwise the log keeps growing and recovery bounds
  // replay by commit sequence instead.
  bool wal_reset = false;
  {
    MutexLock lock(commit_mu_);
    if (open_txns_.empty() && commit_seq_ == header.absorbed_commit_seq) {
      ARCHIS_RETURN_NOT_OK(wal_->FlushDurable());
      ARCHIS_RETURN_NOT_OK(wal_->ResetAfterCheckpoint(header.seq));
      wal_reset = true;
      fr::Record(fr::EventType::kCheckpointPhase, header.seq, 0, 0,
                 "wal_reset");
    }
  }
  wal_bytes_at_last_checkpoint_ = wal_->bytes_written();
  checkpoint.Close(header.seq, 0);
  metrics::Get(metrics::kCheckpointRows).Inc(manifest_rows);
  logging::Info("checkpoint.complete")
      .Kv("seq", header.seq)
      .Kv("relations", relations)
      .Kv("manifest_bytes", encoded.size())
      .Kv("rows", manifest_rows)
      .Kv("active_txns", header.active_txn_ids.size())
      .Kv("wal_reset", wal_reset)
      .Kv("clock", Date(header.clock_days).ToString());
  return Status::OK();
}

Status ArchIS::CaptureRelation(const std::string& name,
                               const TimeInterval& interval,
                               CheckpointWriter* writer) {
  auto info = relations_.find(name);
  if (info == relations_.end()) {
    return Status::Internal("archived relation '" + name +
                            "' has no catalog entry");
  }
  ARCHIS_ASSIGN_OR_RETURN(HTableSet * set, archiver_.htables(name));
  CheckpointRelation rel;
  rel.spec.name = name;
  rel.spec.schema = set->current_schema();
  rel.spec.key_columns = set->key_columns();
  rel.spec.doc_name = info->second.doc_name;
  rel.spec.root_tag = info->second.doc.root_tag;
  rel.spec.entity_tag = info->second.doc.entity_tag;
  rel.open_days = interval.tstart.days();
  rel.close_days = interval.tend.days();
  rel.dropped = !interval.is_current();
  rel.surrogates.assign(set->surrogate_ids().begin(),
                        set->surrogate_ids().end());
  std::sort(rel.surrogates.begin(), rel.surrogates.end());
  rel.next_surrogate = set->next_surrogate();
  ARCHIS_RETURN_NOT_OK(writer->BeginRelation(rel));
  // Each row is encoded into the manifest as it is scanned.
  Status added = Status::OK();
  const auto add = [&](const Tuple& row) {
    added = writer->AddRow(row);
    return added.ok();
  };
  // Raw deduplicated store rows, key table first (the manifest must round-
  // trip re-insertions of one key without merging their intervals, which
  // the published H-document would).
  ARCHIS_RETURN_NOT_OK(set->key_store()->ScanHistory(add));
  ARCHIS_RETURN_NOT_OK(added);
  for (const std::string& attr : set->attribute_names()) {
    ARCHIS_ASSIGN_OR_RETURN(SegmentedStore * store,
                            set->attribute_store(attr));
    ARCHIS_RETURN_NOT_OK(writer->NextRowList());
    ARCHIS_RETURN_NOT_OK(store->ScanHistory(add));
    ARCHIS_RETURN_NOT_OK(added);
  }
  ARCHIS_RETURN_NOT_OK(writer->NextRowList());
  if (!rel.dropped) {
    ARCHIS_ASSIGN_OR_RETURN(Table * table,
                            current_db_.catalog().GetTable(name));
    ARCHIS_RETURN_NOT_OK(table->Scan(
        [&](const storage::RecordId&, const Tuple& row) { return add(row); }));
    ARCHIS_RETURN_NOT_OK(added);
  }
  return writer->EndRelation();
}

Status ArchIS::RestoreFromCheckpoint(const CheckpointManifest& manifest) {
  for (const CheckpointRelation& rel : manifest.relations) {
    ARCHIS_RETURN_NOT_OK(CreateRelationInternal(rel.spec, Date(rel.open_days),
                                                /*log_to_wal=*/false));
    ARCHIS_ASSIGN_OR_RETURN(HTableSet * set,
                            archiver_.htables(rel.spec.name));
    set->RestoreSurrogates(rel.surrogates, rel.next_surrogate);
    if (rel.store_rows.size() != 1 + set->attribute_names().size()) {
      return Status::Corruption(
          "manifest for '" + rel.spec.name + "' carries " +
          std::to_string(rel.store_rows.size()) + " stores, schema needs " +
          std::to_string(1 + set->attribute_names().size()));
    }
    ARCHIS_RETURN_NOT_OK(
        set->key_store()->LoadCheckpointRows(rel.store_rows[0]));
    for (size_t a = 0; a < set->attribute_names().size(); ++a) {
      ARCHIS_ASSIGN_OR_RETURN(
          SegmentedStore * store,
          set->attribute_store(set->attribute_names()[a]));
      ARCHIS_RETURN_NOT_OK(store->LoadCheckpointRows(rel.store_rows[1 + a]));
    }
    if (rel.dropped) {
      ARCHIS_RETURN_NOT_OK(DropRelationInternal(
          rel.spec.name, Date(rel.close_days), /*log_to_wal=*/false));
    } else {
      ARCHIS_ASSIGN_OR_RETURN(Table * table,
                              current_db_.catalog().GetTable(rel.spec.name));
      for (const Tuple& row : rel.current_rows) {
        ARCHIS_RETURN_NOT_OK(table->Insert(row).status());
      }
    }
  }
  InvalidatePlanCache();
  return Status::OK();
}

void ArchIS::MaybeAutoCheckpoint() {
  const uint64_t threshold = options_.wal.checkpoint_after_bytes;
  if (wal_ == nullptr || threshold == 0) return;
  {
    MutexLock l(checkpoint_mu_);
    if (wal_->bytes_written() - wal_bytes_at_last_checkpoint_ < threshold) {
      return;
    }
  }
  // Two committers may race past the threshold check; the second just
  // writes one more manifest. Checkpoint serializes on checkpoint_mu_.
  Status st = Checkpoint();
  if (!st.ok()) {
    // The triggering commit is already durable, so it must not fail here;
    // a dead WAL surfaces on the next commit.
    logging::Warn("checkpoint.auto_failed").Kv("error", st.message());
  }
}

// -- Queries -------------------------------------------------------------------

TranslatorContext ArchIS::translator_context() const {
  TranslatorContext ctx;
  ctx.current_date = clock_;
  for (const auto& [name, info] : relations_) {
    ctx.docs[info.doc_name] = info.doc;
  }
  return ctx;
}

namespace {

// ARCHIS_SLOW_QUERY_MS, parsed once. Unset, unparseable or <= 0 disables;
// a value strtod would have half-accepted ("5xyz") is rejected with one
// warning instead of silently enabling a 5ms threshold.
double SlowQueryEnvMs() {
  static const double ms = [] {
    const char* env = std::getenv("ARCHIS_SLOW_QUERY_MS");
    if (env == nullptr) return 0.0;
    Result<double> v = ParseDouble(env);
    if (!v.ok()) {
      logging::Warn("env.rejected")
          .Kv("var", "ARCHIS_SLOW_QUERY_MS")
          .Kv("value", env)
          .Kv("error", v.status().message());
      return 0.0;
    }
    return *v > 0 ? *v : 0.0;
  }();
  return ms;
}

}  // namespace

Result<QueryResult> ArchIS::Query(const std::string& xquery,
                                  const QueryOptions& options) {
  double slow_ms = options.slow_query_ms;
  if (slow_ms < 0) slow_ms = SlowQueryEnvMs();
  trace::Trace tr;
  // A live slow-query threshold forces profile collection so the slow log
  // can carry the rendered span tree even when the caller did not ask for
  // one; the profile only reaches QueryResult when collect_profile is set.
  trace::Trace* trace =
      (options.collect_profile || slow_ms > 0) ? &tr : nullptr;
  // Adjacent stages share their boundary: each starts where the one
  // before it closed, and the query closes where its last stage did.
  metrics::Stage query(metrics::StageId::kQuery, trace);
  auto fail = [&](Status st) {
    metrics::Get(metrics::kQueryFailures).Inc();
    query.Close(/*rows=*/0, /*ok=*/0);
    return st;
  };
  // Success tail shared by both paths: the query stage, slow-query log,
  // profile hand-off.
  auto finish = [&](QueryResult* result, uint64_t rows,
                    metrics::Stage::Clock::time_point end) {
    query.CloseAt(end, rows, /*ok=*/1);
    const double secs = query.seconds();
    std::optional<trace::QueryProfile> profile;
    if (trace != nullptr) profile = tr.TakeProfile();
    if (slow_ms > 0 && secs * 1e3 >= slow_ms) {
      fr::Record(fr::EventType::kSlowQuery,
                 static_cast<uint64_t>(slow_ms * 1e6),
                 static_cast<uint64_t>(secs * 1e9));
      constexpr size_t kMaxLoggedQuery = 200;
      logging::Warn("query.slow")
          .Kv("ms", secs * 1e3)
          .Kv("threshold_ms", slow_ms)
          .Kv("path", result->path == QueryPath::kTranslated ? "translated"
                                                             : "native")
          .Kv("rows", rows)
          .Kv("query", xquery.size() > kMaxLoggedQuery
                           ? xquery.substr(0, kMaxLoggedQuery) + "..."
                           : xquery)
          .Kv("profile", profile ? profile->Render() : std::string());
    }
    if (options.collect_profile) result->profile = std::move(profile);
  };
  // A deadline already in the past fails fast — the request spent its
  // budget queueing (the server's admission queue is the usual culprit).
  if (options.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *options.deadline) {
    return fail(
        Status::DeadlineExceeded("query deadline passed before execution"));
  }
  QueryResult result;
  metrics::Stage::Clock::time_point t = query.start();
  if (options.force_path != QueryForce::kNative) {
    // Parse and translate are separate stages (the paper reports both
    // costs; Translate() keeps them fused for API compatibility).
    metrics::Stage parse(metrics::StageId::kParse, trace, t);
    Result<xquery::ExprPtr> ast = xquery::ParseXQuery(xquery);
    t = parse.Close();
    metrics::Stage translate(metrics::StageId::kTranslate, trace, t);
    Result<SqlXmlPlan> plan =
        ast.ok() ? TranslateXQuery(*ast, translator_context())
                 : Result<SqlXmlPlan>(ast.status());
    t = translate.Close();
    if (plan.ok()) {
      result.path = QueryPath::kTranslated;
      metrics::Stage execute(metrics::StageId::kExecute, trace, t);
      Result<xml::XmlNodePtr> xml =
          Execute(*plan, &result.stats, trace, options.deadline);
      if (!xml.ok()) return fail(xml.status());
      t = execute.Close();
      result.xml = std::move(*xml);
      metrics::Get(metrics::kQueriesTranslated).Inc();
      finish(&result, result.stats.result_rows, t);
      return result;
    }
    if (options.force_path == QueryForce::kTranslated ||
        plan.status().code() != StatusCode::kUnsupported) {
      return fail(plan.status());
    }
  }
  // Native evaluation over published H-documents. The evaluator has no
  // cancellation points, so the deadline is only checked before starting.
  if (options.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *options.deadline) {
    return fail(
        Status::DeadlineExceeded("query deadline passed before native eval"));
  }
  metrics::Stage native(metrics::StageId::kNativeEval, trace, t);
  Result<xquery::Sequence> seq = QueryNative(xquery);
  if (!seq.ok()) return fail(seq.status());
  t = native.Close();
  result.path = QueryPath::kNativeFallback;
  result.xml = xml::XmlNode::Element("results");
  for (const xquery::Item& item : *seq) {
    if (item.is_node()) {
      result.xml->AppendChild(item.node()->Clone());
    } else {
      result.xml->AppendText(item.StringValue());
    }
  }
  metrics::Get(metrics::kQueriesNative).Inc();
  finish(&result, seq->size(), t);
  return result;
}

Result<SqlXmlPlan> ArchIS::Translate(const std::string& xquery) const {
  return TranslateXQuery(xquery, translator_context());
}

Result<xml::XmlNodePtr> ArchIS::Execute(
    const SqlXmlPlan& plan, PlanStats* stats, trace::Trace* trace,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  metrics::Stage planning(metrics::StageId::kPlan, trace);
  // Plan cache: repeated executions of a structurally identical plan at
  // unchanged statistics (no mutation since planning) skip PlanQuery
  // entirely — prepared-statement behavior, so cheap point queries don't
  // pay planning on every call. The hit path is kept allocation-free: a
  // thread-local scratch buffer for the key, a shared_ptr copy out of
  // the cache.
  thread_local std::string key;
  key.clear();
  AppendPlanCacheKey(plan, &key);
  std::shared_ptr<const PhysicalPlan> physical;
  uint64_t epoch = 0;
  {
    MutexLock l(plan_cache_mu_);
    epoch = plan_epoch_;
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end() && it->second.epoch == plan_epoch_) {
      physical = it->second.physical;
    }
  }
  fr::Record(fr::EventType::kQueryPlan, epoch, 0,
             /*flags=*/physical != nullptr ? 1u : 0u);
  if (physical != nullptr) {
    metrics::Get(metrics::kPlannerCacheHits).Inc();
  } else {
    metrics::Get(metrics::kPlannerCacheMisses).Inc();
    // Planning fails only on an unknown relation or attribute, which the
    // executor would report identically; it counts as a failed execution.
    Result<PhysicalPlan> planned = PlanQuery(archiver_, plan);
    if (!planned.ok()) {
      metrics::Get(metrics::kExecPlans).Inc();
      metrics::Get(metrics::kExecPlanFailures).Inc();
      return planned.status();
    }
    physical = std::make_shared<const PhysicalPlan>(std::move(*planned));
    MutexLock l(plan_cache_mu_);
    // Bounded cache: a workload with unbounded distinct shapes (e.g. a
    // fresh constant per query) must not grow the map forever. 256
    // prepared shapes is far beyond any suite here; wholesale clear keeps
    // eviction O(1) without LRU bookkeeping.
    if (plan_cache_.size() >= 256) plan_cache_.clear();
    plan_cache_[key] = CachedPlan{plan_epoch_, physical};
  }
  // Describe() formats several floats; only pay for it when a profile is
  // actually being collected.
  if (planning.traced()) planning.Note("physical", physical->Describe());
  return ExecutePlan(archiver_, plan, clock_, *physical, stats, trace,
                     deadline, planning.Close());
}

std::string ArchIS::DumpMetrics() {
  return metrics::Registry::Global().TextFormat();
}

Result<xquery::Sequence> ArchIS::QueryNative(const std::string& xquery) {
  xquery::EvalContext ctx;
  ctx.current_date = clock_;
  ctx.resolve_doc =
      [this](const std::string& doc_name) -> Result<xml::XmlNodePtr> {
    for (const auto& [name, info] : relations_) {
      if (info.doc_name == doc_name) return PublishHistory(name);
    }
    return Status::NotFound("no relation publishes doc('" + doc_name + "')");
  };
  xquery::Evaluator evaluator(std::move(ctx));
  return evaluator.EvaluateQuery(xquery);
}

Result<xml::XmlNodePtr> ArchIS::PublishHistory(
    const std::string& relation) const {
  auto info = relations_.find(relation);
  if (info == relations_.end()) {
    return Status::NotFound("relation '" + relation + "'");
  }
  ARCHIS_ASSIGN_OR_RETURN(HTableSet * set, archiver_.htables(relation));
  TimeInterval relation_interval = MakeInterval(clock_, Date::Forever());
  for (const auto& entry : archiver_.relations()) {
    if (entry.name == relation) relation_interval = entry.interval;
  }
  PublishOptions opts;
  opts.root_name = info->second.doc.root_tag;
  opts.entity_name = info->second.doc.entity_tag;
  return core::PublishHistory(*set, relation_interval, opts);
}

Status ArchIS::ImportHistory(const std::string& relation,
                             const xml::XmlNodePtr& doc) {
  ARCHIS_ASSIGN_OR_RETURN(HTableSet * set, archiver_.htables(relation));
  ARCHIS_RETURN_NOT_OK(core::ImportHistory(set, doc));
  InvalidatePlanCache();
  return Status::OK();
}

Result<std::vector<Tuple>> ArchIS::Snapshot(const std::string& relation,
                                            Date t) const {
  ARCHIS_ASSIGN_OR_RETURN(HTableSet * set, archiver_.htables(relation));
  return set->Snapshot(t);
}

Result<std::vector<std::string>> ArchIS::KeyColumns(
    const std::string& relation) const {
  auto info = relations_.find(relation);
  if (info == relations_.end()) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  return info->second.key_columns;
}

Status ArchIS::FreezeAll() {
  ARCHIS_RETURN_NOT_OK(archiver_.FreezeAll(clock_));
  InvalidatePlanCache();
  return Status::OK();
}

void ArchIS::InvalidatePlanCache() {
  MutexLock l(plan_cache_mu_);
  ++plan_epoch_;
}

}  // namespace archis::core
