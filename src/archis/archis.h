// ArchIS: the Archival Information System facade (paper Figure 5).
//
// Owns the current database and the H-tables, captures every change to the
// current tables through a transactional write path (ArchIS::Transaction,
// durably logged by the write-ahead change log in archis/wal.*), and
// answers temporal XQuery either by translation to SQL/XML plans executed
// on the H-tables (the efficient path) or natively over published
// H-documents (the fallback / cross-validation path).
//
// Typical use:
//
//   RelationSpec spec;
//   spec.name = "employees";
//   spec.schema = schema;
//   spec.key_columns = {"id"};
//   spec.doc_name = "employees.xml";
//   archis::core::ArchIS db(options, Date::FromYmd(1995, 1, 1));
//   db.CreateRelation(spec);
//   db.Insert("employees", row);               // auto-commits (kTrigger)
//   db.AdvanceClock(Date::FromYmd(1995, 6, 1));
//   auto txn = db.Begin();                     // explicit write batch
//   txn->Update("employees", key, new_row);    //   ... more DML ...
//   txn->Commit();                             // one timestamp, durable
//   auto xml = db.Query("for $e in doc(\"employees.xml\")/...");
//
// Concurrency: any number of transactions (up to
// ArchISOptions::max_open_transactions) may be open at once, each owned by
// one thread. DML buffers in the transaction (deferred apply); Commit
// validates the write set against every transaction that committed since
// Begin (first committer wins) and applies + archives + logs the batch
// atomically under the commit lock. A conflicting commit fails with
// StatusCode::kConflict and aborts the transaction.
//
// Durability: configure ArchISOptions::wal.path and construct through
// ArchIS::Open, which replays the log (crash recovery) before accepting
// new work. A default-constructed WalOptions (empty path) keeps the
// instance purely in-memory, as before.
#ifndef ARCHIS_ARCHIS_ARCHIS_H_
#define ARCHIS_ARCHIS_ARCHIS_H_

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "archis/archiver.h"
#include "archis/checkpoint.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "archis/publisher.h"
#include "archis/relation_spec.h"
#include "archis/translator.h"
#include "archis/wal.h"
#include "xquery/evaluator.h"

namespace archis::core {

/// Top-level configuration.
struct ArchISOptions {
  SegmentOptions segment;  ///< clustering / compression knobs
  CaptureMode capture_mode = CaptureMode::kTrigger;
  /// Durable change log; empty path = in-memory only. A WAL-configured
  /// instance must be constructed with ArchIS::Open (which runs recovery).
  WalOptions wal;
  /// Admission limit for concurrently open transactions (Begin fails with
  /// InvalidArgument beyond it). The ambient update-log batch counts too.
  size_t max_open_transactions = 64;
};

/// Which execution path answered a query.
enum class QueryPath { kTranslated, kNativeFallback };

/// Pins ArchIS::Query to one execution path. kTranslated fails with
/// Unsupported instead of falling back; kNative skips translation.
enum class QueryForce { kAuto, kTranslated, kNative };

/// Per-query options.
struct QueryOptions {
  QueryForce force_path = QueryForce::kAuto;
  /// Collect a span-tree profile (parse -> translate -> execute ->
  /// segment scans) on QueryResult::profile. Off by default: profiling
  /// allocates per span, so it is opt-in per query.
  bool collect_profile = false;
  /// Slow-query log threshold in milliseconds. A successful query slower
  /// than this emits a `query.slow` warning carrying the rendered profile
  /// (collection is forced internally while a threshold is active).
  /// 0 disables; negative (the default) defers to ARCHIS_SLOW_QUERY_MS
  /// in the environment (unset/0 = disabled).
  double slow_query_ms = -1.0;
  /// Absolute deadline for this query. The executor checks it at every
  /// scan boundary and every few hundred rows inside a scan, so a long
  /// merge-scan cancels mid-flight with StatusCode::kDeadlineExceeded
  /// (partial PlanStats are still attributed). Unset = no deadline.
  /// Native-path evaluation only checks before starting — cancellation
  /// granularity is a translated-path guarantee.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Result of ArchIS::Query.
struct QueryResult {
  xml::XmlNodePtr xml;   ///< result wrapped in a <results> element
  QueryPath path;        ///< translated SQL/XML or native fallback
  PlanStats stats;       ///< executor statistics (translated path only)
  /// Span tree of this query (QueryOptions::collect_profile); its
  /// Render() is the EXPLAIN-style breakdown.
  std::optional<trace::QueryProfile> profile;
};

class ArchIS;

/// A write batch on one ArchIS instance. DML buffers in the transaction
/// (reads through the handle see its own writes; nothing touches the
/// current tables until Commit), Commit validates the write set against
/// concurrently committed transactions (first committer wins), stamps
/// every change with the commit-instant transaction time, makes the batch
/// durable in the WAL (group commit, fsync) and archives it into the
/// H-tables. A conflicting Commit fails with StatusCode::kConflict and
/// the transaction is aborted.
///
/// A Transaction is movable but single-thread-affine: the first thread to
/// use a handle (fresh from Begin, or freshly moved) claims it, and from
/// then on only that thread may call its methods. A move releases the
/// claim, so the natural handoff idiom works — move the handle into a
/// lambda or thread closure and use it over there; the receiving thread
/// claims it on first use.
///
/// A Transaction must not outlive its ArchIS. Destroying an uncommitted
/// Transaction aborts it.
class Transaction {
 public:
  Transaction(Transaction&& other) noexcept;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  Transaction& operator=(Transaction&&) = delete;
  ~Transaction();

  Status Insert(const std::string& relation, const minirel::Tuple& row);

  /// Updates the current row whose key columns equal `key`; the row moves
  /// to `new_row` (key must be unchanged — keys are invariant, Section 3).
  Status Update(const std::string& relation,
                const std::vector<minirel::Value>& key,
                const minirel::Tuple& new_row);

  Status Delete(const std::string& relation,
                const std::vector<minirel::Value>& key);

  /// Durably commits the batch. All changes carry one transaction-time
  /// instant (the clock at commit). Fails with StatusCode::kConflict
  /// (naming the contested key) when another transaction committed a row
  /// in this write set after Begin; the transaction is then aborted.
  /// After Commit the handle is finished; further DML returns Aborted.
  [[nodiscard]] Status Commit();

  /// Discards the batch; nothing is applied, logged or archived.
  Status Abort();

  /// Whether the transaction can still accept DML.
  bool active() const { return !finished_; }

  /// Buffered, not-yet-committed changes.
  size_t pending() const { return changes_.size(); }

  /// Transaction id (its COMMIT record's id; diagnostics).
  uint64_t id() const { return txn_id_; }

 private:
  friend class ArchIS;

  /// Write-set overlay entry: the transaction's view of one key.
  struct OverlayEntry {
    /// Index in changes_ of the latest statement on the key; its new_row
    /// (none after a delete) is the key's pending current-table tuple.
    size_t latest = 0;
    /// Where the key's current-table row sits: found by the statement
    /// that first read it, then moved along by each applied change, so
    /// commit apply needs no second lookup. Invalid = not known (commit
    /// apply looks the key up in the pk index).
    storage::RecordId rid;
  };

  /// The pending current-table tuple of `entry`'s key; nullptr once the
  /// transaction deleted it.
  const minirel::Tuple* PendingRow(const OverlayEntry& entry) const {
    const ChangeRecord& c = changes_[entry.latest];
    return c.kind == ChangeKind::kDelete ? nullptr : &c.new_row;
  }

  Transaction(ArchIS* db, uint64_t txn_id, uint64_t begin_seq,
              bool stamp_at_commit);

  /// Rejects calls from any thread but the owner (see class comment);
  /// claims the calling thread when the handle is freshly moved.
  Status CheckThread();

  ArchIS* db_;
  uint64_t txn_id_;
  /// Commit sequence number at Begin; commits with a later sequence on an
  /// overlapping key are conflicts.
  uint64_t begin_seq_;
  /// ArchIS's relation-drop count at Begin: a drop in between frees pages,
  /// so commit apply then drops the carried record ids.
  uint64_t begin_drops_ = 0;
  /// Buffered statements, in order; Commit logs them as they are.
  std::vector<ChangeRecord> changes_;
  /// The overlay entry of each statement's key, parallel to changes_
  /// (std::map nodes never move, so the pointers survive inserts and
  /// moves).
  std::vector<OverlayEntry*> change_entries_;
  /// Write set keyed by relation + encoded key values.
  std::map<std::string, OverlayEntry> overlay_;
  /// Owning thread. A move resets it to the null id ("unclaimed"); the
  /// first use after a move claims the calling thread.
  std::thread::id owner_;
  /// Explicit transactions stamp all changes at commit (one instant);
  /// the ambient update-log batch keeps per-statement dates.
  bool stamp_at_commit_;
  bool finished_ = false;
};

/// A transaction-time temporal database on a relational engine.
class ArchIS {
 public:
  /// In-memory instance (no WAL). If `options.wal.path` is set, every DML
  /// call fails — durable instances must be built with Open so recovery
  /// runs first.
  ArchIS(ArchISOptions options, Date start_date);
  ~ArchIS();

  /// Builds an instance with a durable change log: restores the newest
  /// checkpoint manifest (else the previous one), replays the WAL suffix
  /// of commits past it (truncating a torn tail), then opens the log for
  /// appending. With an empty WAL path this is just the in-memory
  /// constructor.
  static Result<std::unique_ptr<ArchIS>> Open(ArchISOptions options,
                                              Date start_date);

  // -- Schema -----------------------------------------------------------------

  /// Creates a current table plus its H-tables, registers the H-document
  /// name for doc() references, and durably logs the schema change.
  /// Empty `spec.root_tag` defaults to the relation name; empty
  /// `spec.entity_tag` to the root tag with a trailing 's' stripped.
  Status CreateRelation(const RelationSpec& spec);

  /// Drops the current table; history stays queryable, and the relation's
  /// interval closes in the global relations table.
  Status DropRelation(const std::string& name);

  // -- Transaction clock -------------------------------------------------------

  /// Advances the transaction-time clock (must not go backwards). Open
  /// transactions are unaffected: their changes are stamped at the clock
  /// value of their commit instant, not of their Begin.
  Status AdvanceClock(Date now);
  Date Now() const { return clock_; }

  // -- Transactional DML on the current database --------------------------------

  /// Starts an explicit write batch. All its changes commit atomically at
  /// one transaction-time instant. Fails (InvalidArgument) when
  /// max_open_transactions handles are already open, or on a
  /// WAL-configured instance that skipped recovery.
  [[nodiscard]] Result<Transaction> Begin();

  /// Statement-level DML. In kTrigger capture mode each call is its own
  /// auto-committed transaction (durably logged before returning); in
  /// kUpdateLog mode calls accumulate in the ambient batch until Commit.
  Status Insert(const std::string& relation, const minirel::Tuple& row);
  Status Update(const std::string& relation,
                const std::vector<minirel::Value>& key,
                const minirel::Tuple& new_row);
  Status Delete(const std::string& relation,
                const std::vector<minirel::Value>& key);

  /// Commits the ambient batch (kUpdateLog capture mode). No-op when
  /// nothing is buffered; OK in kTrigger mode (statements already
  /// committed themselves).
  Status Commit();

  /// Buffered statement-level changes awaiting Commit.
  size_t pending_changes() const;

  // -- Queries ------------------------------------------------------------------

  /// Answers an XQuery: translated to SQL/XML when the translator covers
  /// it, otherwise evaluated natively over published H-documents.
  /// `options.force_path` pins one path (for equivalence testing).
  Result<QueryResult> Query(const std::string& xquery,
                            const QueryOptions& options = {});

  /// Translation only (the paper reports sub-0.1ms translation costs).
  Result<SqlXmlPlan> Translate(const std::string& xquery) const;

  /// Executes a (possibly hand-built) plan against the H-tables, with the
  /// physical shape the cost-based planner chooses (cached per plan
  /// shape). `deadline` (absolute) cancels the execution at the next scan
  /// boundary once passed (StatusCode::kDeadlineExceeded).
  Result<xml::XmlNodePtr> Execute(
      const SqlXmlPlan& plan, PlanStats* stats = nullptr,
      trace::Trace* trace = nullptr,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt) const;

  /// Native evaluation over published H-documents.
  Result<xquery::Sequence> QueryNative(const std::string& xquery);

  /// The H-document (temporally grouped XML view) of a relation.
  Result<xml::XmlNodePtr> PublishHistory(const std::string& relation) const;

  /// Restores a relation's history from an H-document previously produced
  /// by PublishHistory (archive interchange). The relation must be
  /// registered and its H-tables empty; the current table is not rebuilt —
  /// this is a history-only restore, queryable immediately.
  Status ImportHistory(const std::string& relation,
                       const xml::XmlNodePtr& doc);

  /// Snapshot of a relation reconstructed from its H-tables.
  Result<std::vector<minirel::Tuple>> Snapshot(const std::string& relation,
                                               Date t) const;

  // -- Recovery ----------------------------------------------------------------

  /// Fuzzy checkpoint (DESIGN.md §13): encodes the whole durable state
  /// into one manifest under the commit lock — no quiesce; open
  /// transactions keep running — and installs it next to the WAL by
  /// atomic rename. The WAL is truncated to a marker unless a commit
  /// landed after the capture; open transactions hold nothing in the log.
  /// Otherwise recovery bounds replay by commit sequence.
  /// `crash_point` injects a deterministic stop for crash-recovery tests;
  /// every injected stop leaves a state recovery handles exactly.
  Status Checkpoint(
      CheckpointCrashPoint crash_point = CheckpointCrashPoint::kNone);

  /// Bytes of WAL suffix the last Open replayed (0 when the manifest
  /// covered everything). After a quiesced checkpoint + clean reopen this
  /// is exactly the traffic since that checkpoint — the bounded-recovery
  /// guarantee, asserted by tests via archis_wal_recovered_bytes too.
  uint64_t last_recovery_replayed_bytes() const {
    return last_recovery_replayed_bytes_;
  }

  /// Sequence number of the checkpoint this instance recovered from or
  /// last wrote (0 = none yet).
  uint64_t checkpoint_seq() const { return checkpoint_seq_; }

  /// The WAL handle (nullptr for in-memory instances). Exposes group
  /// commit counters for tests and benchmarks.
  const Wal* wal() const { return wal_.get(); }

  /// Prometheus-style text exposition of the process-wide metrics
  /// registry (WAL group commit, block cache, page IO, segment
  /// clustering, query/executor counters). Static because the registry is
  /// process-wide; see DESIGN.md §9 for the catalog.
  static std::string DumpMetrics();

  /// Chrome trace_event JSON of the process-wide flight recorder (every
  /// thread's recent txn/WAL/checkpoint/query/cache events, timestamp
  /// sorted). Load in chrome://tracing or Perfetto; see DESIGN.md §14.
  static std::string DumpTrace();

  // -- Maintenance / introspection -----------------------------------------------

  /// Freezes every live segment (e.g. before measuring compression).
  Status FreezeAll();

  /// Storage held by the H-tables (archived history).
  uint64_t HistoryStorageBytes() const { return archiver_.StorageBytes(); }

  /// Key-column names of a registered relation (NotFound when unknown).
  /// The network front end uses this to parse typed key values in update
  /// scripts without reaching into the private relation registry.
  Result<std::vector<std::string>> KeyColumns(
      const std::string& relation) const;

  minirel::Database& current_db() { return current_db_; }
  const minirel::Database& current_db() const { return current_db_; }
  Archiver& archiver() { return archiver_; }
  const Archiver& archiver() const { return archiver_; }
  const ArchISOptions& options() const { return options_; }

  /// Translator context (docs registered via CreateRelation).
  TranslatorContext translator_context() const;

 private:
  friend class Transaction;

  struct RelationInfo {
    std::vector<std::string> key_columns;
    std::vector<size_t> key_positions;
    DocBinding doc;
    std::string doc_name;
  };

  /// Fails DML on a WAL-configured instance that skipped recovery.
  Status CheckWritable() const;

  Status CreateRelationInternal(RelationSpec spec, Date open_date,
                                bool log_to_wal) ARCHIS_EXCLUDES(commit_mu_);
  Status DropRelationInternal(const std::string& name, Date when,
                              bool log_to_wal) ARCHIS_EXCLUDES(commit_mu_);

  // Transaction plumbing: validate against the transaction's view (its
  // overlay, then the committed table) and buffer the change. Nothing is
  // applied or logged until Commit.
  Status TxnInsert(Transaction* txn, const std::string& relation,
                   const minirel::Tuple& row);
  Status TxnUpdate(Transaction* txn, const std::string& relation,
                   const std::vector<minirel::Value>& key,
                   const minirel::Tuple& new_row);
  Status TxnDelete(Transaction* txn, const std::string& relation,
                   const std::vector<minirel::Value>& key);

  /// Buffers `change` and points its key's overlay entry at the new row;
  /// `found` is where this statement found the key's committed row
  /// (invalid when it did not look).
  Status BufferChange(Transaction* txn, std::string wkey, ChangeRecord change,
                      storage::RecordId found) ARCHIS_REQUIRES(commit_mu_);

  /// Commit protocol: conflict-validate the write set, stamp, apply to
  /// the current tables, archive, then enqueue the COMMIT record; wait for
  /// durability outside the commit lock (group commit).
  Status CommitTxn(Transaction* txn);

  /// Abort protocol: deregister and discard the batch (nothing was
  /// logged).
  Status AbortTxn(Transaction* txn);

  /// Applies one committed change to the current table + H-tables: the
  /// one apply path of both commit and recovery replay. `rid` is where the
  /// statement found the key's current row (invalid: look it up); it is
  /// moved to where the row is afterwards.
  Status ApplyCommitted(const ChangeRecord& change, storage::RecordId* rid)
      ARCHIS_REQUIRES(commit_mu_);

  /// Deregisters `txn_id`; the last one out clears the committed-writer
  /// index (nothing left to conflict with).
  void UnregisterTxnLocked(uint64_t txn_id) ARCHIS_REQUIRES(commit_mu_);

  /// Rebuilds catalog, H-tables, surrogates, current tables and clock from
  /// a manifest (recovery, before the WAL suffix).
  Status RestoreFromCheckpoint(const CheckpointManifest& manifest);

  /// Streams one registered relation's whole state into `writer`.
  Status CaptureRelation(const std::string& name, const TimeInterval& interval,
                         CheckpointWriter* writer) ARCHIS_REQUIRES(commit_mu_);

  /// A cost-based physical plan cached by ArchIS::Execute, keyed by
  /// AppendPlanCacheKey (planner.h). `epoch` is the plan_epoch_ value at
  /// planning time; entries from older epochs replan. A stale plan could
  /// only change the access strategy, never the answer (both shapes are
  /// answer-equivalent — the forced-plan equivalence suite is the proof),
  /// so the epoch guards freshness of the cost model, not correctness.
  /// Shared ownership keeps a cache hit at pointer-copy cost; the plan
  /// itself was produced by PlanQuery and is immutable once cached.
  struct CachedPlan {
    uint64_t epoch = 0;
    std::shared_ptr<const PhysicalPlan> physical;
  };

  /// Drops cached plan validity after any mutation that changes segment
  /// statistics or the set of relations (commit, freeze, DDL, recovery).
  void InvalidatePlanCache();

  /// Runs Checkpoint() when the auto-checkpoint byte threshold is crossed.
  /// Failures are logged, not returned: the committed batch that triggered
  /// us is already durable, and a dead WAL surfaces on the next commit.
  void MaybeAutoCheckpoint();

  /// Starts a transaction; explicit batches stamp at commit, the ambient
  /// update-log batch keeps per-statement dates.
  Result<Transaction> BeginInternal(bool stamp_at_commit);

  /// The ambient statement-level batch (kUpdateLog mode), lazily begun.
  Result<Transaction*> AmbientTxn();

  Result<storage::RecordId> FindByKey(minirel::Table* table,
                                      const RelationInfo& info,
                                      const std::vector<minirel::Value>& key,
                                      minirel::Tuple* row) const;

  /// Key column values of `row` under `info` (for replay/apply lookups).
  static std::vector<minirel::Value> KeyOf(const RelationInfo& info,
                                           const minirel::Tuple& row);

  /// Write-set key: relation + '\0' + encoded key values.
  static std::string WriteSetKey(const std::string& relation,
                                 const std::vector<minirel::Value>& key);

  /// "relation(v1, v2)" — the conflict-message rendering of a key.
  static std::string DisplayKey(const std::string& relation,
                                const std::vector<minirel::Value>& key);

  /// DisplayKey of a write-set key.
  static std::string DisplayWriteSetKey(const std::string& wkey);

  /// Contributes the active-transaction table to flight-recorder crash
  /// dumps; registered for this instance's lifetime (defined in the .cc).
  class CrashSource;
  std::unique_ptr<CrashSource> crash_source_;

  ArchISOptions options_;
  Date clock_;
  minirel::Database current_db_;
  minirel::Database history_db_;
  Archiver archiver_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Transaction> ambient_;
  std::map<std::string, RelationInfo> relations_;

  /// Commit lock: serializes DML validation, commit apply, clock moves
  /// and DDL. Held briefly; commit durability waits happen outside it.
  Mutex commit_mu_{LockRank::kFacadeCommit};
  /// Monotone commit sequence (order of committed transactions).
  uint64_t commit_seq_ ARCHIS_GUARDED_BY(commit_mu_) = 0;
  /// Txn-id source. Open resumes it above every id in the log and the
  /// manifest's counter.
  uint64_t next_txn_id_ ARCHIS_GUARDED_BY(commit_mu_) = 1;
  /// Ids of open transactions (admission + checkpoint active table).
  std::set<uint64_t> open_txns_ ARCHIS_GUARDED_BY(commit_mu_);
  /// Last commit sequence that wrote each write-set key, recorded only
  /// while another transaction is open (no later Begin can conflict with
  /// it). Cleared when the last open transaction finishes.
  std::unordered_map<std::string, uint64_t> key_last_writer_
      ARCHIS_GUARDED_BY(commit_mu_);
  /// Relations dropped so far (see Transaction::begin_drops_).
  uint64_t relations_dropped_ ARCHIS_GUARDED_BY(commit_mu_) = 0;

  /// Serializes checkpoint captures/installs against each other (ranked
  /// outside the commit lock: capture acquires commit_mu_ inside it).
  Mutex checkpoint_mu_{LockRank::kFacadeCheckpoint};

  /// Plan cache for Execute (mutable: queries are const). The mutex makes
  /// the cache safe under concurrent read-only queries; mutations happen
  /// single-threaded but still bump the epoch under the lock.
  mutable Mutex plan_cache_mu_{LockRank::kFacadePlanCache};
  mutable std::unordered_map<std::string, CachedPlan> plan_cache_
      ARCHIS_GUARDED_BY(plan_cache_mu_);
  /// Bumped by InvalidatePlanCache on every statistics-changing mutation.
  mutable uint64_t plan_epoch_ ARCHIS_GUARDED_BY(plan_cache_mu_) = 0;
  /// Wal::bytes_written() at the last checkpoint (auto-checkpoint delta).
  uint64_t wal_bytes_at_last_checkpoint_ ARCHIS_GUARDED_BY(checkpoint_mu_) =
      0;
  /// Last checkpoint written or recovered from (0 = none).
  uint64_t checkpoint_seq_ = 0;
  uint64_t last_recovery_replayed_bytes_ = 0;
};

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_ARCHIS_H_
