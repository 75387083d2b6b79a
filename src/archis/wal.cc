#include "archis/wal.h"

#include <map>

#include "common/coding.h"
#include "common/flight_recorder.h"
#include "common/instruments.h"
#include "common/log.h"

namespace archis::core {

namespace {

using coding::AppendI64;
using coding::AppendLengthPrefixed;
using coding::AppendU64;
using coding::ReadI64;
using coding::ReadLengthPrefixed;
using coding::ReadU64;
using storage::AppendFrame;

void EncodeBegin(uint64_t txn_id, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kBegin));
  AppendU64(txn_id, &payload);
  AppendFrame(payload, out);
}

void EncodeChange(uint64_t txn_id, const ChangeRecord& change,
                  std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kChange));
  AppendU64(txn_id, &payload);
  EncodeChangeRecord(change, &payload);
  AppendFrame(payload, out);
}

void EncodeCommit(uint64_t txn_id, Date commit_date, bool stamped,
                  uint64_t commit_seq, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kCommit));
  AppendU64(txn_id, &payload);
  AppendI64(commit_date.days(), &payload);
  payload.push_back(stamped ? 1 : 0);
  AppendU64(commit_seq, &payload);
  AppendFrame(payload, out);
}

void EncodeAbort(uint64_t txn_id, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kAbort));
  AppendU64(txn_id, &payload);
  AppendFrame(payload, out);
}

void EncodeCreateRelation(const RelationSpec& spec, Date open_date,
                          uint64_t commit_seq, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kCreateRelation));
  EncodeRelationSpec(spec, &payload);
  AppendI64(open_date.days(), &payload);
  AppendU64(commit_seq, &payload);
  AppendFrame(payload, out);
}

void EncodeDropRelation(const std::string& name, Date when,
                        uint64_t commit_seq, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kDropRelation));
  AppendLengthPrefixed(name, &payload);
  AppendI64(when.days(), &payload);
  AppendU64(commit_seq, &payload);
  AppendFrame(payload, out);
}

void EncodeCheckpointMarker(uint64_t checkpoint_seq, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kCheckpoint));
  AppendU64(checkpoint_seq, &payload);
  AppendFrame(payload, out);
}

Result<WalCreateRelation> DecodeCreateRelation(std::string_view data,
                                               size_t* pos) {
  WalCreateRelation out;
  ARCHIS_ASSIGN_OR_RETURN(out.spec, DecodeRelationSpec(data, pos));
  ARCHIS_ASSIGN_OR_RETURN(int64_t days, ReadI64(data, pos));
  out.open_date = Date(days);
  ARCHIS_ASSIGN_OR_RETURN(out.commit_seq, ReadU64(data, pos));
  return out;
}

}  // namespace

Result<WalRecovery> Wal::Recover(const std::string& path) {
  ARCHIS_ASSIGN_OR_RETURN(storage::LogScan scan,
                          storage::ScanLogFile(path));
  WalRecovery rec;
  rec.valid_bytes = scan.valid_bytes;
  rec.torn_tail = scan.torn_tail;
  // Transactions in flight: BEGIN seen, COMMIT/ABORT not yet. The offset
  // is the BEGIN frame's: a committed transaction is replay-ordered by its
  // COMMIT record but *located* at its BEGIN, so offset-based filtering
  // (legacy manifests) treats the whole run as one unit.
  struct OpenTxn {
    WalCommittedTxn txn;
    uint64_t begin_offset = 0;
  };
  std::map<uint64_t, OpenTxn> open;
  for (const storage::LogRecord& record : scan.records) {
    std::string_view payload = record.payload;
    if (payload.empty()) {
      return Status::Corruption("WAL record with empty payload");
    }
    auto type = static_cast<WalRecordType>(payload[0]);
    size_t pos = 1;
    switch (type) {
      case WalRecordType::kBegin: {
        ARCHIS_ASSIGN_OR_RETURN(uint64_t id, ReadU64(payload, &pos));
        if (!open.try_emplace(id,
                              OpenTxn{WalCommittedTxn{id, Date(), 0, {}},
                                      record.offset})
                 .second) {
          return Status::Corruption("WAL BEGIN for already-open txn " +
                                    std::to_string(id));
        }
        rec.max_txn_id = std::max(rec.max_txn_id, id);
        break;
      }
      case WalRecordType::kChange: {
        ARCHIS_ASSIGN_OR_RETURN(uint64_t id, ReadU64(payload, &pos));
        auto it = open.find(id);
        if (it == open.end()) {
          return Status::Corruption("WAL CHANGE for unknown txn " +
                                    std::to_string(id));
        }
        ARCHIS_ASSIGN_OR_RETURN(ChangeRecord change,
                                DecodeChangeRecord(payload, &pos));
        it->second.txn.changes.push_back(std::move(change));
        break;
      }
      case WalRecordType::kCommit: {
        ARCHIS_ASSIGN_OR_RETURN(uint64_t id, ReadU64(payload, &pos));
        auto it = open.find(id);
        if (it == open.end()) {
          return Status::Corruption("WAL COMMIT for unknown txn " +
                                    std::to_string(id));
        }
        ARCHIS_ASSIGN_OR_RETURN(int64_t days, ReadI64(payload, &pos));
        if (pos >= payload.size()) {
          return Status::Corruption("WAL COMMIT truncated payload");
        }
        const bool stamped = payload[pos++] != 0;
        ARCHIS_ASSIGN_OR_RETURN(uint64_t seq, ReadU64(payload, &pos));
        it->second.txn.commit_date = Date(days);
        it->second.txn.commit_seq = seq;
        if (stamped) {
          // Explicit transactions commit at one instant: their CHANGE
          // frames were logged at DML time (possibly before a clock
          // advance), so the commit date overrides the per-change dates.
          for (ChangeRecord& change : it->second.txn.changes) {
            change.when = Date(days);
          }
        }
        rec.max_commit_seq = std::max(rec.max_commit_seq, seq);
        rec.items.emplace_back(std::move(it->second.txn));
        rec.item_offsets.push_back(it->second.begin_offset);
        open.erase(it);
        break;
      }
      case WalRecordType::kAbort: {
        ARCHIS_ASSIGN_OR_RETURN(uint64_t id, ReadU64(payload, &pos));
        if (open.erase(id) == 0) {
          return Status::Corruption("WAL ABORT for unknown txn " +
                                    std::to_string(id));
        }
        break;
      }
      case WalRecordType::kCreateRelation: {
        ARCHIS_ASSIGN_OR_RETURN(WalCreateRelation create,
                                DecodeCreateRelation(payload, &pos));
        rec.max_commit_seq = std::max(rec.max_commit_seq, create.commit_seq);
        rec.items.emplace_back(std::move(create));
        rec.item_offsets.push_back(record.offset);
        break;
      }
      case WalRecordType::kDropRelation: {
        WalDropRelation drop;
        ARCHIS_ASSIGN_OR_RETURN(drop.name, ReadLengthPrefixed(payload, &pos));
        ARCHIS_ASSIGN_OR_RETURN(int64_t days, ReadI64(payload, &pos));
        drop.when = Date(days);
        ARCHIS_ASSIGN_OR_RETURN(drop.commit_seq, ReadU64(payload, &pos));
        rec.max_commit_seq = std::max(rec.max_commit_seq, drop.commit_seq);
        rec.items.emplace_back(std::move(drop));
        rec.item_offsets.push_back(record.offset);
        break;
      }
      case WalRecordType::kCheckpoint: {
        // Only ever written as the first record of a freshly truncated
        // log; anywhere else the log was stitched together wrongly.
        if (record.offset != 0) {
          return Status::Corruption("WAL checkpoint marker not at offset 0");
        }
        ARCHIS_ASSIGN_OR_RETURN(rec.checkpoint_seq, ReadU64(payload, &pos));
        rec.has_checkpoint_marker = true;
        break;
      }
      default:
        return Status::Corruption("WAL record with unknown type " +
                                  std::to_string(payload[0]));
    }
  }
  // Whatever is still open was begun but never committed: crash fallout,
  // dropped (its changes were never applied to any durable state).
  rec.uncommitted_txns = open.size();
  return rec;
}

Result<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                       uint64_t next_txn_id) {
  if (options.path.empty()) {
    return Status::InvalidArgument("WAL path must not be empty");
  }
  storage::LogFileOptions lf;
  lf.path = options.path;
  lf.sync = options.sync;
  lf.fail_after_bytes = options.fail_after_bytes;
  ARCHIS_ASSIGN_OR_RETURN(std::unique_ptr<storage::AppendLogFile> file,
                          storage::AppendLogFile::Open(lf));
  auto wal = std::unique_ptr<Wal>(new Wal(std::move(file)));
  wal->next_txn_id_ = next_txn_id == 0 ? 1 : next_txn_id;
  return wal;
}

uint64_t Wal::NextTxnId() {
  MutexLock lock(mu_);
  return next_txn_id_++;
}

uint64_t Wal::PeekNextTxnId() const {
  MutexLock lock(mu_);
  return next_txn_id_;
}

Status Wal::ResetAfterCheckpoint(uint64_t checkpoint_seq) {
  MutexLock lock(mu_);
  if (!dead_.ok()) return dead_;
  if (sync_in_progress_ || !pending_.empty()) {
    return Status::InvalidArgument(
        "WAL reset with frames in flight (truncation requires an idle log)");
  }
  // Truncate, then immediately re-seed the log with a durable marker. If
  // any step fails the WAL is dead (sticky), so a log truncated here either
  // starts with this marker or accepts no further commits — recovery can
  // trust a marker-less log to be the pre-checkpoint one.
  std::string framed;
  EncodeCheckpointMarker(checkpoint_seq, &framed);
  Status io = file_->Reset();
  if (io.ok()) io = file_->Append(framed);
  if (io.ok()) io = file_->Sync();
  bytes_ = file_->bytes_written();
  if (!io.ok()) {
    dead_ = io;
    logging::Error("wal.dead")
        .Kv("error", io.ToString())
        .Kv("op", "checkpoint-reset");
    return io;
  }
  return Status::OK();
}

Status Wal::EnqueueBegin(uint64_t txn_id) {
  std::string framed;
  EncodeBegin(txn_id, &framed);
  fr::Record(fr::EventType::kWalAppend, txn_id, framed.size());
  return Enqueue(framed).status();
}

Status Wal::EnqueueChange(uint64_t txn_id, const ChangeRecord& change) {
  std::string framed;
  EncodeChange(txn_id, change, &framed);
  fr::Record(fr::EventType::kWalAppend, txn_id, framed.size());
  return Enqueue(framed).status();
}

Status Wal::EnqueueAbort(uint64_t txn_id) {
  std::string framed;
  EncodeAbort(txn_id, &framed);
  fr::Record(fr::EventType::kWalAppend, txn_id, framed.size());
  return Enqueue(framed).status();
}

Result<uint64_t> Wal::EnqueueCommit(uint64_t txn_id, Date commit_date,
                                    bool stamped, uint64_t commit_seq) {
  std::string framed;
  EncodeCommit(txn_id, commit_date, stamped, commit_seq, &framed);
  fr::Record(fr::EventType::kWalAppend, txn_id, framed.size());
  return Enqueue(framed);
}

Status Wal::WaitDurable(uint64_t ticket) {
  return WaitDurableInternal(ticket, /*count_commit=*/true);
}

Status Wal::FlushDurable() {
  uint64_t ticket;
  {
    MutexLock lock(mu_);
    if (!dead_.ok()) return dead_;
    ticket = submitted_seq_;
  }
  if (ticket == 0) return Status::OK();
  return WaitDurableInternal(ticket, /*count_commit=*/false);
}

Status Wal::LogTransaction(uint64_t txn_id,
                           const std::vector<ChangeRecord>& changes,
                           Date commit_date, bool stamped,
                           uint64_t commit_seq) {
  std::string framed;
  EncodeBegin(txn_id, &framed);
  for (const ChangeRecord& change : changes) {
    EncodeChange(txn_id, change, &framed);
  }
  EncodeCommit(txn_id, commit_date, stamped, commit_seq, &framed);
  return SubmitDurable(framed);
}

Status Wal::LogCreateRelation(const RelationSpec& spec, Date open_date,
                              uint64_t commit_seq) {
  std::string framed;
  EncodeCreateRelation(spec, open_date, commit_seq, &framed);
  return SubmitDurable(framed);
}

Status Wal::LogDropRelation(const std::string& name, Date when,
                            uint64_t commit_seq) {
  std::string framed;
  EncodeDropRelation(name, when, commit_seq, &framed);
  return SubmitDurable(framed);
}

Result<uint64_t> Wal::Enqueue(std::string_view framed) {
  MutexLock lock(mu_);
  if (!dead_.ok()) return dead_;
  const uint64_t my_seq = ++submitted_seq_;
  pending_.append(framed);
  pending_seq_ = my_seq;
  return my_seq;
}

Status Wal::SubmitDurable(std::string_view framed) {
  ARCHIS_ASSIGN_OR_RETURN(uint64_t ticket, Enqueue(framed));
  return WaitDurableInternal(ticket, /*count_commit=*/true);
}

Status Wal::WaitDurableInternal(uint64_t ticket, bool count_commit) {
  mu_.Lock();
  for (;;) {
    if (durable_seq_ >= ticket) {
      if (count_commit) ++commits_;
      mu_.Unlock();
      if (count_commit) metrics::Get(metrics::kWalCommits).Inc();
      return Status::OK();
    }
    if (!dead_.ok()) {
      Status st = dead_;
      mu_.Unlock();
      return st;
    }
    if (!sync_in_progress_) {
      // Become the leader: write and sync everything accumulated so far,
      // covering this caller and any followers that queued behind it.
      // Every frame <= ticket is in pending_ here: not durable, and no
      // other leader is in flight to have taken it.
      sync_in_progress_ = true;
      std::string batch = std::move(pending_);
      pending_.clear();
      const uint64_t batch_seq = pending_seq_;
      // Frames this leader's sync will cover (its own plus every follower
      // that queued behind it) — the group-commit coalescing factor.
      const uint64_t batch_frames = batch_seq - durable_seq_;
      mu_.Unlock();
      fr::Record(fr::EventType::kWalLeaderHandoff, batch_frames);
      metrics::Stage fsync(metrics::StageId::kWalFsync);
      Status io = file_->Append(batch);
      if (io.ok()) io = file_->Sync();
      mu_.Lock();
      sync_in_progress_ = false;
      bytes_ = file_->bytes_written();
      if (io.ok()) {
        durable_seq_ = batch_seq;
        ++syncs_;
        fsync.Close(batch.size(), static_cast<uint32_t>(batch_frames));
        metrics::Get(metrics::kWalSyncBatchBytes)
            .Observe(static_cast<double>(batch.size()));
        metrics::Get(metrics::kWalBytesWritten).Inc(batch.size());
      } else {
        dead_ = io;  // the log is crashed; every committer sees the error
        logging::Error("wal.dead")
            .Kv("error", io.ToString())
            .Kv("batch_bytes", batch.size());
      }
      cv_.NotifyAll();
    } else {
      metrics::Get(metrics::kWalFollowerWaits).Inc();
      cv_.Wait(mu_, [this, ticket]() ARCHIS_REQUIRES(mu_) {
        return durable_seq_ >= ticket || !sync_in_progress_ || !dead_.ok();
      });
    }
  }
}

uint64_t Wal::commit_count() const {
  MutexLock lock(mu_);
  return commits_;
}

uint64_t Wal::sync_count() const {
  MutexLock lock(mu_);
  return syncs_;
}

uint64_t Wal::bytes_written() const {
  MutexLock lock(mu_);
  return bytes_;
}

uint64_t Wal::end_offset() const {
  MutexLock lock(mu_);
  // Callers read this after FlushDurable() under the facade commit lock
  // (no leader in flight), when the file handle is safe to inspect.
  return file_->end_offset();
}

}  // namespace archis::core
