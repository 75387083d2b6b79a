#include "archis/archis.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>

#include "archis/planner.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parse.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

namespace archis::core {

using minirel::Schema;
using minirel::Table;
using minirel::Tuple;
using minirel::Value;

namespace {

// Facade-level metric catalog (DESIGN.md §9): query path mix and latency,
// change-capture throughput, transaction outcomes.
metrics::Counter* QueriesTranslatedMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_queries_translated_total",
      "Queries answered by the translated SQL/XML path");
  return c;
}

metrics::Counter* QueriesNativeMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_queries_native_total",
      "Queries answered by native evaluation over published H-documents");
  return c;
}

metrics::Counter* QueryFailuresMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_query_failures_total",
      "Queries that returned a non-OK status on every attempted path");
  return c;
}

metrics::Histogram* QuerySecondsMetric() {
  static metrics::Histogram* h = metrics::Registry::Global().GetHistogram(
      "archis_query_seconds", "End-to-end ArchIS::Query latency",
      metrics::DefaultLatencyBuckets());
  return h;
}

metrics::Counter* TxnCommitsMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_txn_commits_total",
      "Committed change batches (explicit, ambient and autocommit)");
  return c;
}

metrics::Counter* TxnAbortsMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_txn_aborts_total", "Aborted (discarded) change batches");
  return c;
}

metrics::Counter* TxnConflictsMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_txn_conflicts_total",
      "Commits rejected by first-committer-wins conflict detection");
  return c;
}

metrics::Counter* ChangesCapturedMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_changes_captured_total",
      "Change records committed into the H-tables (capture throughput)");
  return c;
}

metrics::Counter* ConflictChangesMetric() {
  // Conflict-aborted commits keep their CHANGE attribution instead of
  // vanishing: same family as the committed counter, outcome-labeled.
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_changes_captured_total{outcome=\"conflict\"}",
      "Change records committed into the H-tables (capture throughput)");
  return c;
}

metrics::Histogram* CommitSecondsMetric(bool conflict) {
  static metrics::Histogram* ok = metrics::Registry::Global().GetHistogram(
      "archis_commit_seconds{outcome=\"ok\"}",
      "Commit latency (Begin-to-durable) by outcome",
      metrics::DefaultLatencyBuckets());
  static metrics::Histogram* lost = metrics::Registry::Global().GetHistogram(
      "archis_commit_seconds{outcome=\"conflict\"}",
      "Commit latency (Begin-to-durable) by outcome",
      metrics::DefaultLatencyBuckets());
  return conflict ? lost : ok;
}

metrics::Counter* AbortReasonMetric(fr::AbortReason reason) {
  // archis_txn_abort_total{reason=...}: the per-cause breakdown of the
  // aggregate archis_txn_aborts_total counter.
  static constexpr char kHelp[] =
      "Transaction aborts broken down by reason";
  static metrics::Counter* explicit_abort =
      metrics::Registry::Global().GetCounter(
          "archis_txn_abort_total{reason=\"explicit\"}", kHelp);
  static metrics::Counter* conflict = metrics::Registry::Global().GetCounter(
      "archis_txn_abort_total{reason=\"conflict\"}", kHelp);
  static metrics::Counter* wrong_thread =
      metrics::Registry::Global().GetCounter(
          "archis_txn_abort_total{reason=\"wrong_thread\"}", kHelp);
  static metrics::Counter* wal_poison =
      metrics::Registry::Global().GetCounter(
          "archis_txn_abort_total{reason=\"wal_poison\"}", kHelp);
  switch (reason) {
    case fr::AbortReason::kConflict:
      return conflict;
    case fr::AbortReason::kWrongThread:
      return wrong_thread;
    case fr::AbortReason::kWalPoison:
      return wal_poison;
    case fr::AbortReason::kExplicit:
      break;
  }
  return explicit_abort;
}

// Sliding-window views (DESIGN.md §14): rate + percentiles over the
// trailing 1s/10s/60s, rendered as labeled gauges in the exposition.
metrics::WindowedHistogram* QueryWindowMetric() {
  static metrics::WindowedHistogram* w =
      metrics::Registry::Global().GetWindowed(
          "archis_query_window_seconds",
          "Query latency over sliding 1s/10s/60s windows",
          metrics::DefaultLatencyBuckets());
  return w;
}

metrics::WindowedHistogram* ConflictWindowMetric() {
  static metrics::WindowedHistogram* w =
      metrics::Registry::Global().GetWindowed(
          "archis_conflict_window",
          "Commit conflicts over sliding 1s/10s/60s windows (rate)",
          metrics::DefaultLatencyBuckets());
  return w;
}

// Checkpoint / bounded recovery metrics (DESIGN.md §10, §13).
metrics::Histogram* CheckpointSecondsMetric() {
  static metrics::Histogram* h = metrics::Registry::Global().GetHistogram(
      "archis_checkpoint_seconds",
      "Latency of one checkpoint (capture + install + WAL reset)",
      metrics::DefaultLatencyBuckets());
  return h;
}

metrics::Counter* CheckpointsMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_checkpoints_total", "Checkpoints completed (manual + auto)");
  return c;
}

metrics::Counter* CheckpointDirtyRowsMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_checkpoint_dirty_rows",
      "Rows serialized into checkpoint manifests (every row for a base "
      "manifest, rows dirtied since the last capture for a delta)");
  return c;
}

metrics::Counter* WalRecoveredBytesMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_wal_recovered_bytes",
      "WAL bytes replayed by recovery (suffix past the manifest only)");
  return c;
}

metrics::Counter* ManifestFallbacksMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_checkpoint_manifest_fallbacks_total",
      "Recoveries that found the newest manifest torn and used the "
      "previous one");
  return c;
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
    AbortReasonMetric(fr::AbortReason::kWrongThread)->Inc();
    fr::Record(fr::EventType::kTxnAbort, txn_id_, 0,
               static_cast<uint32_t>(fr::AbortReason::kWrongThread));
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
  // Manifest chain first (bounded recovery, DESIGN.md §10/§13): restore the
  // base snapshot, layer every delta, then replay only the commits past the
  // chain.
  CheckpointChain chain = LoadCheckpointChain(wal_path);
  if (chain.fell_back) ManifestFallbacksMetric()->Inc();
  ARCHIS_ASSIGN_OR_RETURN(WalRecovery recovery, Wal::Recover(wal_path));
  auto db = std::make_unique<ArchIS>(std::move(options), start_date);
  uint64_t replay_from_offset = 0;  // legacy (pre-v3) manifests
  uint64_t absorbed_seq = 0;        // v3 manifests filter by commit sequence
  bool filter_by_seq = false;
  uint64_t chain_next_txn_id = 0;
  if (!chain.manifests.empty()) {
    const CheckpointManifest& last = chain.manifests.back();
    if (recovery.has_checkpoint_marker &&
        recovery.checkpoint_seq > last.seq) {
      return Status::Corruption(
          "WAL was truncated by checkpoint " +
          std::to_string(recovery.checkpoint_seq) +
          " but the newest readable manifest is seq " +
          std::to_string(last.seq));
    }
    ARCHIS_RETURN_NOT_OK(db->RestoreFromCheckpoint(chain.manifests.front()));
    for (size_t i = 1; i < chain.manifests.size(); ++i) {
      ARCHIS_RETURN_NOT_OK(db->ApplyCheckpointDelta(chain.manifests[i]));
    }
    db->checkpoint_seq_ = last.seq;
    chain_next_txn_id = last.next_txn_id;
    if (db->clock_ < Date(last.clock_days)) {
      db->clock_ = Date(last.clock_days);
    }
    if (last.version >= 3) {
      // Fuzzy manifests absorb a commit-sequence prefix, not a log prefix:
      // a commit whose frames straddle the capture point replays by its
      // sequence number regardless of where its bytes sit.
      filter_by_seq = true;
      absorbed_seq = last.absorbed_commit_seq;
    } else if (!recovery.has_checkpoint_marker ||
               recovery.checkpoint_seq < last.seq) {
      // Legacy quiesced manifests measured a log offset. A marker of the
      // manifest's own seq means the log *is* this checkpoint's suffix
      // (offsets restarted at 0); an older / absent marker means the log
      // layout is still the one the manifest measured.
      replay_from_offset = last.wal_offset;
    }
  } else if (recovery.has_checkpoint_marker) {
    return Status::Corruption(
        "WAL was truncated by checkpoint " +
        std::to_string(recovery.checkpoint_seq) +
        " but no checkpoint manifest is readable");
  }
  // Restored state is durable in the chain — not dirty. Replay re-marks
  // whatever it touches.
  db->ClearAllDirty();
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
    if (filter_by_seq ? item_commit_seq(item) <= absorbed_seq
                      : recovery.item_offsets[i] < replay_from_offset) {
      continue;
    }
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
  if (next_txn_id < chain_next_txn_id) next_txn_id = chain_next_txn_id;
  ARCHIS_ASSIGN_OR_RETURN(db->wal_, Wal::Open(wal_options, next_txn_id));
  db->last_recovery_replayed_bytes_ = replayed_bytes;
  static metrics::Counter* recoveries = metrics::Registry::Global().GetCounter(
      "archis_wal_recoveries_total", "WAL recovery passes run by Open");
  static metrics::Counter* recovered_items =
      metrics::Registry::Global().GetCounter(
          "archis_wal_recovered_items_total",
          "Committed transactions and DDL records replayed by recovery");
  recoveries->Inc();
  recovered_items->Inc(replayed_items);
  WalRecoveredBytesMetric()->Inc(replayed_bytes);
  logging::Info("wal.recovered")
      .Kv("path", wal_path)
      .Kv("items", replayed_items)
      .Kv("skipped_items", recovery.items.size() - replayed_items)
      .Kv("valid_bytes", recovery.valid_bytes)
      .Kv("replayed_bytes", replayed_bytes)
      .Kv("checkpoint_seq", db->checkpoint_seq_)
      .Kv("chain_manifests", chain.manifests.size())
      .Kv("manifest_fallback", chain.fell_back)
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
  ARCHIS_ASSIGN_OR_RETURN(
      Table * table, current_db_.catalog().CreateTable(spec.name, spec.schema));
  ARCHIS_RETURN_NOT_OK(table->CreateIndex("pk", spec.key_columns));
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
  relations_[spec.name] = std::move(info);
  ARCHIS_RETURN_NOT_OK(archiver_.RegisterRelation(
      spec.name, spec.schema, spec.key_columns, options_.segment, open_date));
  InvalidatePlanCache();
  // Deltas cannot express schema changes; the next checkpoint rebases.
  ddl_since_checkpoint_ = true;
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
  ARCHIS_RETURN_NOT_OK(archiver_.UnregisterRelation(name, when));
  InvalidatePlanCache();
  ddl_since_checkpoint_ = true;
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
  return Transaction(this, txn_id, commit_seq_, stamp_at_commit);
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

std::string ArchIS::EncodeKeyValues(const std::vector<Value>& key) {
  Tuple t;
  for (const Value& v : key) t.Append(v);
  std::string out;
  EncodeTuple(t, &out);
  return out;
}

std::string ArchIS::WriteSetKey(const std::string& relation,
                                const std::vector<Value>& key) {
  std::string out = relation;
  out.push_back('\0');
  out += EncodeKeyValues(key);
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
  ARCHIS_RETURN_NOT_OK(row.Encode(table->schema()).status());
  const std::vector<Value> key = KeyOf(info->second, row);
  const std::string wkey = WriteSetKey(relation, key);
  bool visible = false;
  auto ov = txn->overlay_.find(wkey);
  if (ov != txn->overlay_.end()) {
    visible = ov->second.row.has_value();
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
  if (wal_ != nullptr) {
    if (!txn->wal_begun_) {
      ARCHIS_RETURN_NOT_OK(wal_->EnqueueBegin(txn->txn_id_));
      txn->wal_begun_ = true;
    }
    ARCHIS_RETURN_NOT_OK(wal_->EnqueueChange(txn->txn_id_, change));
  }
  txn->changes_.push_back(std::move(change));
  txn->overlay_[wkey] =
      Transaction::OverlayEntry{row, DisplayKey(relation, key)};
  return Status::OK();
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
  ARCHIS_RETURN_NOT_OK(new_row.Encode(table->schema()).status());
  const std::string wkey = WriteSetKey(relation, key);
  Tuple old_row;
  auto ov = txn->overlay_.find(wkey);
  if (ov != txn->overlay_.end()) {
    if (!ov->second.row.has_value()) {
      return Status::NotFound("no current row with that key");
    }
    old_row = *ov->second.row;
  } else {
    ARCHIS_RETURN_NOT_OK(
        FindByKey(table, info->second, key, &old_row).status());
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
  if (wal_ != nullptr) {
    if (!txn->wal_begun_) {
      ARCHIS_RETURN_NOT_OK(wal_->EnqueueBegin(txn->txn_id_));
      txn->wal_begun_ = true;
    }
    ARCHIS_RETURN_NOT_OK(wal_->EnqueueChange(txn->txn_id_, change));
  }
  txn->changes_.push_back(std::move(change));
  txn->overlay_[wkey] =
      Transaction::OverlayEntry{new_row, DisplayKey(relation, key)};
  return Status::OK();
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
  const std::string wkey = WriteSetKey(relation, key);
  Tuple old_row;
  auto ov = txn->overlay_.find(wkey);
  if (ov != txn->overlay_.end()) {
    if (!ov->second.row.has_value()) {
      return Status::NotFound("no current row with that key");
    }
    old_row = *ov->second.row;
  } else {
    ARCHIS_RETURN_NOT_OK(
        FindByKey(table, info->second, key, &old_row).status());
  }
  ChangeRecord change;
  change.kind = ChangeKind::kDelete;
  change.relation = relation;
  change.old_row = std::move(old_row);
  change.when = clock_;
  if (wal_ != nullptr) {
    if (!txn->wal_begun_) {
      ARCHIS_RETURN_NOT_OK(wal_->EnqueueBegin(txn->txn_id_));
      txn->wal_begun_ = true;
    }
    ARCHIS_RETURN_NOT_OK(wal_->EnqueueChange(txn->txn_id_, change));
  }
  txn->changes_.push_back(std::move(change));
  txn->overlay_[wkey] =
      Transaction::OverlayEntry{std::nullopt, DisplayKey(relation, key)};
  return Status::OK();
}

void ArchIS::UnregisterTxnLocked(uint64_t txn_id) {
  open_txns_.erase(txn_id);
  // The last transaction out clears the committed-writer index: with no
  // open transaction left, nothing can conflict with those entries, and
  // every future Begin starts at the current commit sequence anyway.
  if (open_txns_.empty()) key_last_writer_.clear();
}

Status ArchIS::ApplyCommitted(const ChangeRecord& change) {
  auto info = relations_.find(change.relation);
  if (info == relations_.end()) {
    return Status::Internal("commit apply for unknown relation '" +
                            change.relation + "'");
  }
  ARCHIS_ASSIGN_OR_RETURN(Table * table,
                          current_db_.catalog().GetTable(change.relation));
  switch (change.kind) {
    case ChangeKind::kInsert:
      ARCHIS_RETURN_NOT_OK(table->Insert(change.new_row).status());
      break;
    case ChangeKind::kUpdate: {
      Tuple row;
      ARCHIS_ASSIGN_OR_RETURN(
          storage::RecordId rid,
          FindByKey(table, info->second, KeyOf(info->second, change.new_row),
                    &row));
      ARCHIS_RETURN_NOT_OK(table->Update(&rid, change.new_row));
      break;
    }
    case ChangeKind::kDelete: {
      Tuple row;
      ARCHIS_ASSIGN_OR_RETURN(
          storage::RecordId rid,
          FindByKey(table, info->second, KeyOf(info->second, change.old_row),
                    &row));
      ARCHIS_RETURN_NOT_OK(table->Delete(rid));
      break;
    }
  }
  ARCHIS_RETURN_NOT_OK(archiver_.Apply(change));
  const Tuple& key_row = change.kind == ChangeKind::kDelete ? change.old_row
                                                            : change.new_row;
  dirty_current_keys_[change.relation].insert(
      EncodeKeyValues(KeyOf(info->second, key_row)));
  return Status::OK();
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
  const auto commit_started = std::chrono::steady_clock::now();
  auto commit_seconds = [&commit_started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         commit_started)
        .count();
  };
  uint64_t ticket = 0;
  uint64_t committed_seq = 0;
  {
    MutexLock lock(commit_mu_);
    // First committer wins: any key this transaction wrote that a later
    // commit also wrote is a lost update waiting to happen — reject.
    for (const auto& [wkey, entry] : txn->overlay_) {
      auto it = key_last_writer_.find(wkey);
      if (it != key_last_writer_.end() && it->second > txn->begin_seq_) {
        // UnregisterTxnLocked may clear key_last_writer_ (last open txn
        // gone), invalidating `it` — read the winner's seq first.
        const uint64_t winner_seq = it->second;
        if (wal_ != nullptr && txn->wal_begun_) {
          IgnoreStatus(wal_->EnqueueAbort(txn->txn_id_));
        }
        UnregisterTxnLocked(txn->txn_id_);
        TxnConflictsMetric()->Inc();
        TxnAbortsMetric()->Inc();
        AbortReasonMetric(fr::AbortReason::kConflict)->Inc();
        // Conflict-aborted commits keep their latency and CHANGE-count
        // attribution (outcome=conflict) instead of vanishing.
        CommitSecondsMetric(/*conflict=*/true)->Observe(commit_seconds());
        ConflictChangesMetric()->Inc(nchanges);
        ConflictWindowMetric()->Observe(0.0);
        fr::Record(fr::EventType::kTxnConflict, txn->txn_id_, winner_seq, 0,
                   entry.display);
        fr::Record(fr::EventType::kTxnAbort, txn->txn_id_, 0,
                   static_cast<uint32_t>(fr::AbortReason::kConflict));
        return Status::Conflict(
            "write-write conflict on " + entry.display +
            ": a concurrent transaction committed this key first");
      }
    }
    // One transaction, one transaction-time instant: the clock at commit.
    if (txn->stamp_at_commit_) {
      for (ChangeRecord& change : txn->changes_) change.when = clock_;
    }
    const uint64_t seq = commit_seq_ + 1;
    if (wal_ != nullptr) {
      // Enqueued under the commit lock, so log order equals commit order;
      // the durability wait happens outside it (group commit).
      Result<uint64_t> enq = wal_->EnqueueCommit(
          txn->txn_id_, clock_, txn->stamp_at_commit_, seq);
      if (!enq.ok()) {
        UnregisterTxnLocked(txn->txn_id_);
        TxnAbortsMetric()->Inc();
        AbortReasonMetric(fr::AbortReason::kWalPoison)->Inc();
        fr::Record(fr::EventType::kTxnAbort, txn->txn_id_, 0,
                   static_cast<uint32_t>(fr::AbortReason::kWalPoison));
        return enq.status();
      }
      ticket = *enq;
    }
    Status applied = Status::OK();
    for (const ChangeRecord& change : txn->changes_) {
      applied = ApplyCommitted(change);
      if (!applied.ok()) break;
    }
    if (!applied.ok()) {
      UnregisterTxnLocked(txn->txn_id_);
      return applied;
    }
    commit_seq_ = seq;
    for (const auto& [wkey, entry] : txn->overlay_) {
      key_last_writer_[wkey] = seq;
    }
    committed_seq = seq;
    UnregisterTxnLocked(txn->txn_id_);
  }
  if (wal_ != nullptr) {
    Status durable = wal_->WaitDurable(ticket);
    if (!durable.ok()) {
      TxnAbortsMetric()->Inc();
      AbortReasonMetric(fr::AbortReason::kWalPoison)->Inc();
      fr::Record(fr::EventType::kTxnAbort, txn->txn_id_, 0,
                 static_cast<uint32_t>(fr::AbortReason::kWalPoison));
      return durable;
    }
  }
  InvalidatePlanCache();
  TxnCommitsMetric()->Inc();
  ChangesCapturedMetric()->Inc(nchanges);
  CommitSecondsMetric(/*conflict=*/false)->Observe(commit_seconds());
  // Recorded only after WaitDurable succeeds: every txn_commit event in a
  // crash dump must name a transaction the WAL will recover as committed.
  fr::Record(fr::EventType::kTxnCommit, txn->txn_id_, committed_seq,
             static_cast<uint32_t>(nchanges));
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
  if (!txn->changes_.empty()) {
    TxnAbortsMetric()->Inc();
    AbortReasonMetric(fr::AbortReason::kExplicit)->Inc();
  }
  fr::Record(fr::EventType::kTxnAbort, txn->txn_id_, 0,
             static_cast<uint32_t>(fr::AbortReason::kExplicit));
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
  const Tuple* applied_row = nullptr;
  switch (change.kind) {
    case ChangeKind::kInsert: {
      Tuple existing;
      auto rid = FindByKey(table, info->second,
                           KeyOf(info->second, change.new_row), &existing);
      if (rid.ok()) return Status::OK();  // already applied
      if (rid.status().code() != StatusCode::kNotFound) return rid.status();
      ARCHIS_RETURN_NOT_OK(table->Insert(change.new_row).status());
      ARCHIS_RETURN_NOT_OK(archiver_.Apply(change));
      applied_row = &change.new_row;
      break;
    }
    case ChangeKind::kUpdate: {
      Tuple existing;
      ARCHIS_ASSIGN_OR_RETURN(
          storage::RecordId rid,
          FindByKey(table, info->second, KeyOf(info->second, change.new_row),
                    &existing));
      if (existing == change.new_row) return Status::OK();  // already applied
      ARCHIS_RETURN_NOT_OK(table->Update(&rid, change.new_row));
      ARCHIS_RETURN_NOT_OK(archiver_.Apply(change));
      applied_row = &change.new_row;
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
      ARCHIS_RETURN_NOT_OK(archiver_.Apply(change));
      applied_row = &change.old_row;
      break;
    }
  }
  if (applied_row != nullptr) {
    dirty_current_keys_[change.relation].insert(
        EncodeKeyValues(KeyOf(info->second, *applied_row)));
  }
  return Status::OK();
}

// -- Checkpointing -------------------------------------------------------------

Status ArchIS::Checkpoint(CheckpointCrashPoint crash_point) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "Checkpoint requires a WAL-backed instance (in-memory instances "
        "have nothing to truncate)");
  }
  const auto started = std::chrono::steady_clock::now();
  MutexLock ckpt_lock(checkpoint_mu_);
  CheckpointManifest manifest;
  std::vector<RelationDirty> drained;
  bool is_base = false;
  bool had_ddl = false;
  {
    // checkpoint_mu_ -> commit_mu_ is the one true order (ranks 3 -> 5,
    // enforced at runtime by LockRank).
    MutexLock lock(commit_mu_);
    // Capture barrier: everything enqueued so far becomes durable before
    // the capture, so the manifest never absorbs a commit the log could
    // still lose. No quiesce — open transactions keep their handles; their
    // uncommitted changes are simply not in any table yet.
    ARCHIS_RETURN_NOT_OK(wal_->FlushDurable());
    is_base = ddl_since_checkpoint_ || checkpoint_chain_len_ == 0 ||
              checkpoint_chain_len_ >= options_.wal.checkpoint_base_every;
    had_ddl = ddl_since_checkpoint_;
    ddl_since_checkpoint_ = false;
    manifest.seq = checkpoint_seq_ + 1;
    fr::Record(fr::EventType::kCheckpointPhase, manifest.seq, 0, 0, "capture");
    manifest.clock_days = clock_.days();
    manifest.next_txn_id = wal_->PeekNextTxnId();
    manifest.wal_offset = wal_->end_offset();
    manifest.base = is_base;
    manifest.prev_seq = is_base ? 0 : checkpoint_seq_;
    manifest.absorbed_commit_seq = commit_seq_;
    manifest.active_txn_ids.assign(open_txns_.begin(), open_txns_.end());
    Status captured = Status::OK();
    for (const Archiver::RelationEntry& entry : archiver_.relations()) {
      if (is_base) {
        Result<CheckpointRelation> rel =
            CaptureRelation(entry.name, entry.interval);
        if (!rel.ok()) {
          captured = rel.status();
          break;
        }
        RelationDirty rd;
        DrainDirty(entry.name, &rd);
        drained.push_back(std::move(rd));
        manifest.relations.push_back(std::move(*rel));
      } else {
        Result<HTableSet*> set = archiver_.htables(entry.name);
        if (!set.ok()) {
          captured = set.status();
          break;
        }
        bool dirty = (*set)->dirty_surrogate_count() > 0 ||
                     (*set)->key_store()->dirty_count() > 0;
        for (const std::string& attr : (*set)->attribute_names()) {
          if (dirty) break;
          Result<SegmentedStore*> store = (*set)->attribute_store(attr);
          if (!store.ok()) {
            // Name came from attribute_names(): the lookup cannot fail.
            IgnoreStatus(store.status());
            continue;
          }
          if ((*store)->dirty_count() > 0) dirty = true;
        }
        if (!dirty) {
          auto it = dirty_current_keys_.find(entry.name);
          dirty = it != dirty_current_keys_.end() && !it->second.empty();
        }
        if (!dirty) continue;
        RelationDirty rd;
        Result<CheckpointRelation> rel =
            CaptureRelationDelta(entry.name, entry.interval, &rd);
        drained.push_back(std::move(rd));
        if (!rel.ok()) {
          captured = rel.status();
          break;
        }
        manifest.relations.push_back(std::move(*rel));
      }
    }
    if (!captured.ok()) {
      MergeDirtyBack(drained);
      ddl_since_checkpoint_ = ddl_since_checkpoint_ || had_ddl;
      return captured;
    }
  }
  uint64_t manifest_rows = 0;
  for (const CheckpointRelation& rel : manifest.relations) {
    for (const auto& rows : rel.store_rows) manifest_rows += rows.size();
    manifest_rows += rel.current_rows.size() + rel.current_deletes.size();
  }
  fr::Record(fr::EventType::kCheckpointPhase, manifest.seq, 0, 0, "encode");
  Result<std::string> encoded = EncodeCheckpointManifest(manifest);
  fr::Record(fr::EventType::kCheckpointPhase, manifest.seq, 0, 0, "install");
  Status install =
      encoded.ok()
          ? (is_base ? InstallCheckpointManifest(options_.wal.path, *encoded,
                                                 crash_point)
                     : AppendCheckpointDelta(options_.wal.path, *encoded,
                                             checkpoint_file_valid_bytes_,
                                             crash_point))
          : encoded.status();
  if (!install.ok()) {
    MutexLock lock(commit_mu_);
    MergeDirtyBack(drained);
    ddl_since_checkpoint_ = ddl_since_checkpoint_ || had_ddl;
    return install;
  }
  checkpoint_seq_ = manifest.seq;
  checkpoint_chain_len_ = is_base ? 1 : checkpoint_chain_len_ + 1;
  checkpoint_file_valid_bytes_ = is_base
                                     ? encoded->size()
                                     : checkpoint_file_valid_bytes_ +
                                           encoded->size();
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
    if (open_txns_.empty() && commit_seq_ == manifest.absorbed_commit_seq) {
      ARCHIS_RETURN_NOT_OK(wal_->FlushDurable());
      ARCHIS_RETURN_NOT_OK(wal_->ResetAfterCheckpoint(manifest.seq));
      wal_reset = true;
      fr::Record(fr::EventType::kCheckpointPhase, manifest.seq, 0, 0,
                 "wal_reset");
    }
  }
  wal_bytes_at_last_checkpoint_ = wal_->bytes_written();
  CheckpointsMetric()->Inc();
  CheckpointDirtyRowsMetric()->Inc(manifest_rows);
  CheckpointSecondsMetric()->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count());
  fr::Record(fr::EventType::kCheckpointPhase, manifest.seq, 0, 0, "complete");
  logging::Info("checkpoint.complete")
      .Kv("seq", manifest.seq)
      .Kv("kind", is_base ? "base" : "delta")
      .Kv("relations", manifest.relations.size())
      .Kv("manifest_bytes", encoded->size())
      .Kv("rows", manifest_rows)
      .Kv("active_txns", manifest.active_txn_ids.size())
      .Kv("wal_reset", wal_reset)
      .Kv("clock", Date(manifest.clock_days).ToString());
  return Status::OK();
}

Result<CheckpointRelation> ArchIS::CaptureRelation(
    const std::string& name, const TimeInterval& interval) {
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
  rel.full = true;
  rel.surrogates.assign(set->surrogate_ids().begin(),
                        set->surrogate_ids().end());
  std::sort(rel.surrogates.begin(), rel.surrogates.end());
  rel.next_surrogate = set->next_surrogate();
  // Raw deduplicated store rows, key table first (the manifest must round-
  // trip re-insertions of one key without merging their intervals, which
  // the published H-document would).
  rel.store_rows.emplace_back();
  ARCHIS_RETURN_NOT_OK(
      set->key_store()->ScanHistory([&](const Tuple& row) {
        rel.store_rows.back().push_back(row);
        return true;
      }));
  rel.store_stats.push_back(set->key_store()->statistics().Encode());
  for (const std::string& attr : set->attribute_names()) {
    ARCHIS_ASSIGN_OR_RETURN(SegmentedStore * store,
                            set->attribute_store(attr));
    rel.store_rows.emplace_back();
    ARCHIS_RETURN_NOT_OK(store->ScanHistory([&](const Tuple& row) {
      rel.store_rows.back().push_back(row);
      return true;
    }));
    rel.store_stats.push_back(store->statistics().Encode());
  }
  if (!rel.dropped) {
    ARCHIS_ASSIGN_OR_RETURN(Table * table,
                            current_db_.catalog().GetTable(name));
    ARCHIS_RETURN_NOT_OK(
        table->Scan([&](const storage::RecordId&, const Tuple& row) {
          rel.current_rows.push_back(row);
          return true;
        }));
  }
  return rel;
}

void ArchIS::DrainDirty(const std::string& name, RelationDirty* drained) {
  drained->name = name;
  Result<HTableSet*> set = archiver_.htables(name);
  if (!set.ok()) {
    // Relation vanished between the caller's iteration and here; nothing
    // to drain.
    IgnoreStatus(set.status());
    return;
  }
  drained->store_dirty.push_back((*set)->key_store()->TakeDirty());
  for (const std::string& attr : (*set)->attribute_names()) {
    Result<SegmentedStore*> store = (*set)->attribute_store(attr);
    if (!store.ok()) {
      IgnoreStatus(store.status());
      drained->store_dirty.emplace_back();
      continue;
    }
    drained->store_dirty.push_back((*store)->TakeDirty());
  }
  drained->surrogates = (*set)->TakeDirtySurrogates();
  auto it = dirty_current_keys_.find(name);
  if (it != dirty_current_keys_.end()) {
    drained->current_keys = std::move(it->second);
    dirty_current_keys_.erase(it);
  }
}

Result<CheckpointRelation> ArchIS::CaptureRelationDelta(
    const std::string& name, const TimeInterval& interval,
    RelationDirty* drained) {
  auto info = relations_.find(name);
  if (info == relations_.end()) {
    return Status::Internal("archived relation '" + name +
                            "' has no catalog entry");
  }
  ARCHIS_ASSIGN_OR_RETURN(HTableSet * set, archiver_.htables(name));
  DrainDirty(name, drained);
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
  rel.full = false;
  rel.surrogates = drained->surrogates;
  std::sort(rel.surrogates.begin(), rel.surrogates.end());
  rel.next_surrogate = set->next_surrogate();
  // Dirty store rows only, by version identity (id, tstart): the recovery
  // side upserts them onto the restored base.
  std::vector<SegmentedStore*> stores;
  stores.push_back(set->key_store());
  for (const std::string& attr : set->attribute_names()) {
    ARCHIS_ASSIGN_OR_RETURN(SegmentedStore * store,
                            set->attribute_store(attr));
    stores.push_back(store);
  }
  for (size_t s = 0; s < stores.size(); ++s) {
    rel.store_rows.emplace_back();
    const std::set<std::pair<int64_t, int64_t>>& dirty =
        drained->store_dirty[s];
    const size_t tstart_col = stores[s]->row_schema().num_columns() - 2;
    std::map<int64_t, std::set<int64_t>> by_id;
    for (const auto& [id, tstart_days] : dirty) {
      by_id[id].insert(tstart_days);
    }
    for (const auto& [id, tstarts] : by_id) {
      ARCHIS_RETURN_NOT_OK(stores[s]->ScanId(id, [&](const Tuple& row) {
        if (tstarts.count(row.at(tstart_col).AsDate().days()) > 0) {
          rel.store_rows.back().push_back(row);
        }
        return true;
      }));
    }
    rel.store_stats.push_back(stores[s]->statistics().Encode());
  }
  // Current-table delta: for every key written since the last capture,
  // either its current row (upsert) or a delete marker.
  if (!rel.dropped && !drained->current_keys.empty()) {
    ARCHIS_ASSIGN_OR_RETURN(Table * table,
                            current_db_.catalog().GetTable(name));
    for (const std::string& encoded_key : drained->current_keys) {
      size_t pos = 0;
      ARCHIS_ASSIGN_OR_RETURN(Tuple key_tuple,
                              DecodeTuple(encoded_key, &pos));
      std::vector<Value> key;
      key.reserve(key_tuple.size());
      for (size_t i = 0; i < key_tuple.size(); ++i) {
        key.push_back(key_tuple.at(i));
      }
      Tuple row;
      Result<storage::RecordId> rid =
          FindByKey(table, info->second, key, &row);
      if (rid.ok()) {
        rel.current_rows.push_back(std::move(row));
      } else if (rid.status().code() == StatusCode::kNotFound) {
        rel.current_deletes.push_back(encoded_key);
      } else {
        return rid.status();
      }
    }
  }
  return rel;
}

void ArchIS::MergeDirtyBack(const std::vector<RelationDirty>& drained) {
  for (const RelationDirty& rd : drained) {
    Result<HTableSet*> set = archiver_.htables(rd.name);
    if (!set.ok()) {
      // The relation was dropped since the drain: its dirty state died
      // with it.
      IgnoreStatus(set.status());
      continue;
    }
    if (!rd.store_dirty.empty()) {
      (*set)->key_store()->MergeDirty(rd.store_dirty[0]);
      for (size_t a = 0; a < (*set)->attribute_names().size(); ++a) {
        if (1 + a >= rd.store_dirty.size()) break;
        Result<SegmentedStore*> store =
            (*set)->attribute_store((*set)->attribute_names()[a]);
        if (!store.ok()) {
          IgnoreStatus(store.status());
          continue;
        }
        (*store)->MergeDirty(rd.store_dirty[1 + a]);
      }
    }
    (*set)->MergeDirtySurrogates(rd.surrogates);
    dirty_current_keys_[rd.name].insert(rd.current_keys.begin(),
                                        rd.current_keys.end());
  }
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
    // Install the checkpointed statistics snapshot over the rebuild's
    // (identical for deterministic stats, but the manifest is the record).
    const bool has_stats = rel.store_stats.size() == rel.store_rows.size();
    ARCHIS_RETURN_NOT_OK(
        set->key_store()->LoadCheckpointRows(rel.store_rows[0]));
    if (has_stats) {
      ARCHIS_ASSIGN_OR_RETURN(StoreStatistics stats,
                              StoreStatistics::Decode(rel.store_stats[0]));
      set->key_store()->RestoreStatistics(std::move(stats));
    }
    for (size_t a = 0; a < set->attribute_names().size(); ++a) {
      ARCHIS_ASSIGN_OR_RETURN(
          SegmentedStore * store,
          set->attribute_store(set->attribute_names()[a]));
      ARCHIS_RETURN_NOT_OK(store->LoadCheckpointRows(rel.store_rows[1 + a]));
      if (has_stats) {
        ARCHIS_ASSIGN_OR_RETURN(
            StoreStatistics stats,
            StoreStatistics::Decode(rel.store_stats[1 + a]));
        store->RestoreStatistics(std::move(stats));
      }
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

Status ArchIS::ApplyCheckpointDelta(const CheckpointManifest& manifest) {
  for (const CheckpointRelation& rel : manifest.relations) {
    auto info = relations_.find(rel.spec.name);
    if (info == relations_.end()) {
      return Status::Corruption("checkpoint delta patches relation '" +
                                rel.spec.name +
                                "' which no base manifest created");
    }
    ARCHIS_ASSIGN_OR_RETURN(HTableSet * set,
                            archiver_.htables(rel.spec.name));
    set->AddSurrogates(rel.surrogates, rel.next_surrogate);
    if (rel.store_rows.size() != 1 + set->attribute_names().size()) {
      return Status::Corruption(
          "delta manifest for '" + rel.spec.name + "' carries " +
          std::to_string(rel.store_rows.size()) + " stores, schema needs " +
          std::to_string(1 + set->attribute_names().size()));
    }
    const bool has_stats = rel.store_stats.size() == rel.store_rows.size();
    std::vector<SegmentedStore*> stores;
    stores.push_back(set->key_store());
    for (const std::string& attr : set->attribute_names()) {
      ARCHIS_ASSIGN_OR_RETURN(SegmentedStore * store,
                              set->attribute_store(attr));
      stores.push_back(store);
    }
    for (size_t s = 0; s < stores.size(); ++s) {
      for (const Tuple& row : rel.store_rows[s]) {
        ARCHIS_RETURN_NOT_OK(stores[s]->UpsertCheckpointRow(row));
      }
      if (has_stats) {
        ARCHIS_ASSIGN_OR_RETURN(StoreStatistics stats,
                                StoreStatistics::Decode(rel.store_stats[s]));
        stores[s]->RestoreStatistics(std::move(stats));
      }
    }
    if (!rel.dropped) {
      ARCHIS_ASSIGN_OR_RETURN(Table * table,
                              current_db_.catalog().GetTable(rel.spec.name));
      for (const Tuple& row : rel.current_rows) {
        const std::vector<Value> key = KeyOf(info->second, row);
        Tuple existing;
        Result<storage::RecordId> rid =
            FindByKey(table, info->second, key, &existing);
        if (rid.ok()) {
          storage::RecordId r = *rid;
          ARCHIS_RETURN_NOT_OK(table->Update(&r, row));
        } else if (rid.status().code() == StatusCode::kNotFound) {
          ARCHIS_RETURN_NOT_OK(table->Insert(row).status());
        } else {
          return rid.status();
        }
      }
      for (const std::string& encoded_key : rel.current_deletes) {
        size_t pos = 0;
        ARCHIS_ASSIGN_OR_RETURN(Tuple key_tuple,
                                DecodeTuple(encoded_key, &pos));
        std::vector<Value> key;
        key.reserve(key_tuple.size());
        for (size_t i = 0; i < key_tuple.size(); ++i) {
          key.push_back(key_tuple.at(i));
        }
        Tuple existing;
        Result<storage::RecordId> rid =
            FindByKey(table, info->second, key, &existing);
        if (rid.ok()) {
          ARCHIS_RETURN_NOT_OK(table->Delete(*rid));
        } else if (rid.status().code() != StatusCode::kNotFound) {
          return rid.status();
        }
        // NotFound: the key was inserted and deleted between the base and
        // this delta — nothing to remove.
      }
    }
  }
  InvalidatePlanCache();
  return Status::OK();
}

void ArchIS::ClearAllDirty() {
  for (const Archiver::RelationEntry& entry : archiver_.relations()) {
    Result<HTableSet*> set = archiver_.htables(entry.name);
    if (!set.ok()) {
      IgnoreStatus(set.status());
      continue;
    }
    (*set)->TakeDirtySurrogates();
    (*set)->key_store()->ClearDirty();
    for (const std::string& attr : (*set)->attribute_names()) {
      Result<SegmentedStore*> store = (*set)->attribute_store(attr);
      if (!store.ok()) {
        IgnoreStatus(store.status());
        continue;
      }
      (*store)->ClearDirty();
    }
  }
  MutexLock lock(commit_mu_);
  dirty_current_keys_.clear();
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
  // writes a (near-empty) delta. Checkpoint serializes on checkpoint_mu_.
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
  const auto started = std::chrono::steady_clock::now();
  auto observe_latency = [&started](bool ok, uint64_t rows) {
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
    QuerySecondsMetric()->Observe(secs);
    QueryWindowMetric()->Observe(secs);
    fr::Record(fr::EventType::kQueryExecute, rows,
               static_cast<uint64_t>(secs * 1e9), ok ? 1u : 0u);
    return secs;
  };
  auto fail = [&](Status st) {
    QueryFailuresMetric()->Inc();
    observe_latency(/*ok=*/false, 0);
    return st;
  };
  // Success tail shared by both paths: windowed + flight-recorder
  // accounting, slow-query log, profile hand-off.
  auto finish = [&](QueryResult* result, uint64_t rows) {
    const double secs = observe_latency(/*ok=*/true, rows);
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
  if (options.force_path != QueryForce::kNative) {
    // Parse and translate under separate spans (the paper reports both
    // costs; Translate() keeps them fused for API compatibility).
    Result<xquery::ExprPtr> ast = [&]() -> Result<xquery::ExprPtr> {
      trace::ScopedSpan span(trace, "parse");
      return xquery::ParseXQuery(xquery);
    }();
    Result<SqlXmlPlan> plan =
        ast.ok() ? [&]() -> Result<SqlXmlPlan> {
          trace::ScopedSpan span(trace, "translate");
          return TranslateXQuery(*ast, translator_context());
        }()
                 : Result<SqlXmlPlan>(ast.status());
    if (plan.ok()) {
      result.path = QueryPath::kTranslated;
      Result<xml::XmlNodePtr> xml = [&]() -> Result<xml::XmlNodePtr> {
        trace::ScopedSpan span(trace, "execute");
        return Execute(*plan, &result.stats, trace, options.force_plan,
                       options.deadline);
      }();
      if (!xml.ok()) return fail(xml.status());
      result.xml = std::move(*xml);
      QueriesTranslatedMetric()->Inc();
      finish(&result, result.stats.result_rows);
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
  Result<xquery::Sequence> seq = [&]() -> Result<xquery::Sequence> {
    trace::ScopedSpan span(trace, "native-eval");
    return QueryNative(xquery);
  }();
  if (!seq.ok()) return fail(seq.status());
  result.path = QueryPath::kNativeFallback;
  result.xml = xml::XmlNode::Element("results");
  for (const xquery::Item& item : *seq) {
    if (item.is_node()) {
      result.xml->AppendChild(item.node()->Clone());
    } else {
      result.xml->AppendText(item.StringValue());
    }
  }
  QueriesNativeMetric()->Inc();
  finish(&result, seq->size());
  return result;
}

Result<SqlXmlPlan> ArchIS::Translate(const std::string& xquery) const {
  return TranslateXQuery(xquery, translator_context());
}

Result<xml::XmlNodePtr> ArchIS::Execute(
    const SqlXmlPlan& plan, PlanStats* stats, trace::Trace* trace,
    PlanForce force_plan,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  static metrics::Counter* forced = metrics::Registry::Global().GetCounter(
      "archis_planner_forced_total",
      "Plan executions whose physical shape was pinned by "
      "QueryOptions::force_plan");
  static metrics::Counter* fallbacks = metrics::Registry::Global().GetCounter(
      "archis_planner_fallbacks_total",
      "Cost-based planning failures that fell back to the fixed shape");
  static metrics::Counter* cache_hits = metrics::Registry::Global().GetCounter(
      "archis_planner_cache_hits_total",
      "Executions that reused a cached physical plan (same structural "
      "key, no intervening mutation)");
  static metrics::Counter* cache_misses =
      metrics::Registry::Global().GetCounter(
          "archis_planner_cache_misses_total",
          "Executions that ran the cost-based planner (cold or stale "
          "cache entry)");
  if (force_plan != PlanForce::kAuto) forced->Inc();
  if (force_plan == PlanForce::kFixed) {
    // nullptr physical = the fixed legacy shape (DefaultPhysicalPlan).
    return ExecutePlan(archiver_, plan, clock_, stats, trace,
                       /*physical=*/nullptr, deadline);
  }
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
    cache_hits->Inc();
  } else {
    cache_misses->Inc();
    Result<PhysicalPlan> planned = PlanQuery(archiver_, plan);
    if (!planned.ok()) {
      if (force_plan == PlanForce::kCostBased) return planned.status();
      fallbacks->Inc();
      return ExecutePlan(archiver_, plan, clock_, stats, trace,
                         /*physical=*/nullptr, deadline);
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
  return ExecutePlan(archiver_, plan, clock_, stats, trace, physical.get(),
                     deadline);
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
