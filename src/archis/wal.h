// Write-ahead change log: the durability backbone of the archiving
// pipeline (DESIGN.md §8, §13).
//
// Every schema change and every committed transaction is encoded into
// CRC-framed records (storage/log_file.*) and fsynced before the commit
// returns, so the change history that feeds the H-tables can always be
// rebuilt after a crash. Record stream grammar:
//
//   log    := CHECKPOINT? item*
//   item   := CREATE_RELATION | DROP_RELATION | COMMIT
//   COMMIT := txn_id, commit_date, commit_seq, change*
//
// A transaction is logged once, when it commits: its COMMIT record holds
// every change with its final transaction-time date. Open and aborted
// transactions write nothing. A transaction is committed iff its COMMIT
// record is in the valid prefix of the log; recovery drops a torn tail.
//
// The facade applies a commit and enqueues its COMMIT record under its
// commit lock, which pins the log order of COMMIT records to the commit
// order; it then waits for durability outside the lock. Group commit:
// concurrent waiters coalesce — one leader writes and fsyncs the
// accumulated batch while followers wait, so N commits can cost far fewer
// than N syncs under load.
#ifndef ARCHIS_ARCHIS_WAL_H_
#define ARCHIS_ARCHIS_WAL_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "archis/change_capture.h"
#include "archis/relation_spec.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/log_file.h"

namespace archis::core {

/// WAL configuration (a member of ArchISOptions).
struct WalOptions {
  /// Log file path; empty disables the WAL (pure in-memory instance).
  std::string path;
  /// fsync on commit. Off trades the durability guarantee for speed.
  bool sync = true;
  /// Deterministic crash injection, forwarded to the log file: writes fail
  /// once this many bytes were written through the handle (0 = never).
  uint64_t fail_after_bytes = 0;
  /// Auto-checkpoint policy: once this many bytes have been committed to
  /// the WAL since the last checkpoint, ArchIS checkpoints after the
  /// commit that crossed the threshold, bounding both the log size and
  /// recovery time (DESIGN.md §10). 0 disables (manual Checkpoint only).
  uint64_t checkpoint_after_bytes = 0;
};

/// Record tags on the wire.
enum class WalRecordType : uint8_t {
  kCommit = 3,
  kCreateRelation = 4,
  kDropRelation = 5,
  /// Written as the first (and only first) record right after a checkpoint
  /// truncates the log; carries the checkpoint sequence number so recovery
  /// can tell a truncated log from one the manifest has not yet absorbed.
  kCheckpoint = 6,
};

/// A committed transaction recovered from the log.
struct WalCommittedTxn {
  uint64_t txn_id = 0;
  Date commit_date;
  /// Monotonic commit sequence number stamped by the facade's commit lock
  /// (log order of COMMIT records). Checkpoint manifests record the last
  /// absorbed sequence; recovery skips items at or below it. 0 in logs
  /// written without sequence tracking (tests).
  uint64_t commit_seq = 0;
  /// The changes in statement order, each with its final date.
  std::vector<ChangeRecord> changes;
};

/// A durably logged CreateRelation.
struct WalCreateRelation {
  RelationSpec spec;
  Date open_date;
  uint64_t commit_seq = 0;
};

/// A durably logged DropRelation.
struct WalDropRelation {
  std::string name;
  Date when;
  uint64_t commit_seq = 0;
};

/// One replayable unit, in log order (which is commit order).
using WalReplayItem =
    std::variant<WalCreateRelation, WalDropRelation, WalCommittedTxn>;

/// Everything recovery learns from reading a log.
struct WalRecovery {
  std::vector<WalReplayItem> items;
  /// Byte offset of each item's record, parallel to `items` (recovery
  /// reports the replayed suffix's size from the first replayed offset).
  std::vector<uint64_t> item_offsets;
  /// Byte length of the valid prefix (the opener truncates to this).
  uint64_t valid_bytes = 0;
  /// Whether a torn tail (truncated / CRC-failing bytes) was dropped.
  bool torn_tail = false;
  /// Highest committed transaction id (the facade resumes above it).
  uint64_t max_txn_id = 0;
  /// Highest commit sequence seen on any COMMIT or DDL record.
  uint64_t max_commit_seq = 0;
  /// Whether the log opens with a checkpoint marker (it was truncated by
  /// that checkpoint), and the marker's sequence number.
  bool has_checkpoint_marker = false;
  uint64_t checkpoint_seq = 0;
};

/// The durable change log. Thread-safe: enqueues and waits may race from
/// any number of committers; they serialize on the group-commit queue.
class Wal {
 public:
  /// Parses the log at `path`, returning replayable items in order. A
  /// missing file recovers as empty. Only structural corruption *inside*
  /// the valid prefix is an error; a torn tail is normal crash fallout.
  static Result<WalRecovery> Recover(const std::string& path);

  /// Opens the log for appending (creating it if missing), after the
  /// caller has replayed Recover()'s items and truncated the torn tail.
  static Result<std::unique_ptr<Wal>> Open(const WalOptions& options);

  /// Truncates the log in place and restarts it with a durable checkpoint
  /// marker carrying `checkpoint_seq`. Called by ArchIS::Checkpoint under
  /// its commit lock when nothing is buffered and no commit followed the
  /// capture. On I/O failure the WAL is dead, exactly as for a failed
  /// commit.
  Status ResetAfterCheckpoint(uint64_t checkpoint_seq);

  /// Buffers one committed transaction's COMMIT record (not yet written;
  /// a later durable wait or group leader flushes it) and returns a wait
  /// ticket. Called under the facade commit lock so COMMIT order equals
  /// commit order; the caller then releases the lock and calls
  /// WaitDurable(ticket). Fails only when the WAL is already dead.
  Result<uint64_t> EnqueueCommit(uint64_t txn_id, Date commit_date,
                                 uint64_t commit_seq,
                                 const std::vector<ChangeRecord>& changes);

  /// Blocks until everything enqueued at or before `ticket` is durable
  /// (leader/follower group commit). Counts one durable commit unit.
  Status WaitDurable(uint64_t ticket);

  /// Flushes everything currently buffered and waits for durability
  /// (checkpoint capture barrier). No commit unit is counted.
  Status FlushDurable();

  // -- One-shot convenience (tests, replication streams) -------------------

  /// Durably logs one committed transaction: its COMMIT record, fsynced
  /// (group commit) before returning OK. After any I/O failure the WAL is
  /// dead and every call returns that first error — the instance must be
  /// reopened (crash semantics).
  Status LogTransaction(uint64_t txn_id,
                        const std::vector<ChangeRecord>& changes,
                        Date commit_date, uint64_t commit_seq = 0);

  /// Durably logs a CreateRelation (auto-committed schema change).
  Status LogCreateRelation(const RelationSpec& spec, Date open_date,
                           uint64_t commit_seq = 0);

  /// Durably logs a DropRelation.
  Status LogDropRelation(const std::string& name, Date when,
                         uint64_t commit_seq = 0);

  /// Commit units durably logged (transactions + DDL records).
  uint64_t commit_count() const;
  /// fsync batches performed; under concurrent commit load this is the
  /// group-commit win: sync_count() <= commit_count().
  uint64_t sync_count() const;
  /// Bytes appended through this handle.
  uint64_t bytes_written() const;
  /// Current end-of-file offset (drops to just past the checkpoint marker
  /// after ResetAfterCheckpoint). Does not include buffered frames that no
  /// leader has flushed yet.
  uint64_t end_offset() const;

 private:
  explicit Wal(std::unique_ptr<storage::AppendLogFile> file)
      : file_(std::move(file)) {}

  /// Appends `framed` to the buffer; returns the wait ticket.
  Result<uint64_t> Enqueue(std::string_view framed) ARCHIS_EXCLUDES(mu_);

  /// The leader/follower wait loop; `count_commit` bumps commit_count.
  Status WaitDurableInternal(uint64_t ticket, bool count_commit)
      ARCHIS_EXCLUDES(mu_);

  /// Appends `framed` and waits until it is durable.
  Status SubmitDurable(std::string_view framed) ARCHIS_EXCLUDES(mu_);

  mutable Mutex mu_{LockRank::kWal};
  CondVar cv_;
  /// Accumulated frames not yet handed to a leader.
  std::string pending_ ARCHIS_GUARDED_BY(mu_);
  uint64_t submitted_seq_ ARCHIS_GUARDED_BY(mu_) = 0;
  uint64_t pending_seq_ ARCHIS_GUARDED_BY(mu_) = 0;
  uint64_t durable_seq_ ARCHIS_GUARDED_BY(mu_) = 0;
  bool sync_in_progress_ ARCHIS_GUARDED_BY(mu_) = false;
  /// Sticky first I/O failure (the "crashed" state).
  Status dead_ ARCHIS_GUARDED_BY(mu_);
  uint64_t commits_ ARCHIS_GUARDED_BY(mu_) = 0;
  uint64_t syncs_ ARCHIS_GUARDED_BY(mu_) = 0;
  uint64_t bytes_ ARCHIS_GUARDED_BY(mu_) = 0;
  /// Written only by the leader (guarded by sync_in_progress_, which is
  /// itself mutex-protected, so accesses are ordered).
  std::unique_ptr<storage::AppendLogFile> file_;
};

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_WAL_H_
