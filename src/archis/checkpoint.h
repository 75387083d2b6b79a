// Checkpoint manifests: bounded-time crash recovery for ArchIS (DESIGN.md
// §10, §13, after the ARIES-style fuzzy checkpoints of Stasis).
//
// A checkpoint persists durable state — relation catalog, H-table store
// rows, surrogate-id assignments, current-table rows, clock and txn-id
// counter — into CRC-framed manifests next to the WAL. The manifest file
// is a *chain*: a full base manifest followed by incremental
// deltas, each carrying only the state dirtied since the previous
// manifest plus the commit-sequence low-water mark and the table of
// transactions still open at capture time. Recovery loads the chain
// (falling back to the previous generation on a torn base), applies the
// base then each delta, and replays only the WAL suffix past the last
// absorbed commit sequence — so both checkpoint cost and recovery time
// are bounded by write traffic, not database size.
//
// Chain layout (frames as in storage/log_file.*):
//
//   chain    := manifest+
//   manifest := HEADER relation* FOOTER
//   HEADER   := magic, version, seq, clock, next_txn_id, base?, prev_seq,
//               absorbed_commit_seq, active_txn_ids
//   relation := spec, interval, dropped?, surrogates, store rows,
//               current rows, full?, current deletes
//   FOOTER   := seq          (absence of the footer = torn manifest)
//
// A base manifest is installed atomically (write-temp + fsync + rename,
// previous chain kept as `.ckpt.prev`); a delta is appended to the live
// chain file and fsynced. A torn delta append only ever damages the tail,
// which the chain parser drops.
#ifndef ARCHIS_ARCHIS_CHECKPOINT_H_
#define ARCHIS_ARCHIS_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "archis/relation_spec.h"
#include "common/status.h"
#include "minirel/tuple.h"

namespace archis::core {

/// Deterministic crash injection for the checkpoint protocol: the
/// checkpoint stops with an IOError just *before* the named step, leaving
/// exactly the on-disk state a power loss at that instant would.
enum class CheckpointCrashPoint {
  kNone,
  /// Base: temp manifest written but not fsynced (nothing installed).
  /// Delta: bytes appended to the chain but not fsynced (torn tail).
  kBeforeManifestSync,
  /// Base: temp manifest durable; the rename pair has not run.
  /// Delta: nothing appended at all.
  kBeforeInstall,
  /// Manifest installed; the WAL has not been truncated.
  kBeforeWalReset,
};

/// One relation's durable state inside a manifest. Store rows are the raw
/// deduplicated H-table history (full row tuples in store-schema order),
/// not the published H-document: re-insertions of one key must survive a
/// round trip without their intervals merging.
struct CheckpointRelation {
  RelationSpec spec;
  int64_t open_days = 0;
  /// Interval close (drop date); Forever while the relation is live.
  int64_t close_days = 0;
  bool dropped = false;
  /// Surrogate-id assignments (composite-key relations), sorted by key.
  /// In a delta: only assignments made since the previous manifest.
  std::vector<std::pair<std::string, int64_t>> surrogates;
  int64_t next_surrogate = 1;
  /// store_rows[0] = key table; store_rows[1 + i] = attribute i's table,
  /// in HTableSet::attribute_names() order. In a delta: only the versions
  /// dirtied since the previous manifest (upserted by identity (id,
  /// tstart) at restore).
  std::vector<std::vector<minirel::Tuple>> store_rows;
  /// Current-table rows (empty for dropped relations). In a delta: only
  /// rows whose key was written since the previous manifest (upserts).
  std::vector<minirel::Tuple> current_rows;
  /// Whether this entry carries the relation's complete state (base
  /// manifests) or only the dirty subset (deltas).
  bool full = true;
  /// Delta only: current-table keys deleted since the previous manifest,
  /// as schema-free EncodeTuple blobs of the key values.
  std::vector<std::string> current_deletes;
};

/// Everything one checkpoint persists (one link of the chain).
struct CheckpointManifest {
  /// Monotonic checkpoint sequence number (matches the WAL marker).
  uint64_t seq = 0;
  int64_t clock_days = 0;
  uint64_t next_txn_id = 1;
  /// Chain linkage: a base starts a chain; a delta extends the manifest
  /// whose seq equals prev_seq.
  bool base = true;
  uint64_t prev_seq = 0;
  /// Commit-sequence low-water mark: every commit with seq <= this is
  /// fully reflected in the chain up to and including this manifest;
  /// recovery replays only WAL items above it.
  uint64_t absorbed_commit_seq = 0;
  /// Transactions open at capture time (fuzzy checkpoint): their
  /// BEGIN/CHANGE frames may precede the capture in the WAL, but their
  /// effects are not in the manifest — replay picks them up from their
  /// COMMIT records (seq > absorbed_commit_seq) or drops them.
  std::vector<uint64_t> active_txn_ids;
  std::vector<CheckpointRelation> relations;
};

/// Manifest file names, derived from the WAL path.
std::string CheckpointPath(const std::string& wal_path);
std::string CheckpointPrevPath(const std::string& wal_path);
std::string CheckpointTmpPath(const std::string& wal_path);

/// Row schemas of one relation's H-table stores ([0] = key table, then one
/// per non-key column in schema order), mirroring HTableSet::Create.
Result<std::vector<minirel::Schema>> StoreSchemasFor(const RelationSpec& spec);

/// Serializes one manifest (base or delta) into CRC-framed bytes.
Result<std::string> EncodeCheckpointManifest(
    const CheckpointManifest& manifest);

/// A parsed manifest chain: the base plus zero or more deltas, in order.
struct CheckpointChain {
  std::vector<CheckpointManifest> manifests;
  /// Byte length of the complete-manifest prefix of the chain file. An
  /// incomplete tail manifest (torn delta append) is dropped and excluded;
  /// the next delta append truncates to this before writing.
  uint64_t valid_bytes = 0;
  /// Whether the newest chain was unusable and `.ckpt.prev` was loaded.
  bool fell_back = false;
};

/// Reads and validates the chain at `path`: the first manifest must be a
/// base, every later one a delta linked by prev_seq with increasing seq.
/// An incomplete tail manifest is dropped silently (torn append); missing
/// header/footer structure anywhere else, or a broken link, is Corruption.
Result<CheckpointChain> ReadCheckpointChain(const std::string& path);

/// Loads `<wal>.ckpt`, falling back to `<wal>.ckpt.prev` when the newest
/// chain is missing or unusable. Never fails: an unusable pair is just an
/// empty chain (the caller decides whether that is tolerable).
CheckpointChain LoadCheckpointChain(const std::string& wal_path);

/// Atomically installs `bytes` as a fresh base chain: write the temp
/// file, fsync it, rotate ckpt -> ckpt.prev, rename tmp -> ckpt, fsync the
/// directory. `crash` injects a stop just before the named step
/// (kBeforeWalReset completes the install; the caller owns that step).
Status InstallCheckpointManifest(const std::string& wal_path,
                                 const std::string& bytes,
                                 CheckpointCrashPoint crash);

/// Appends `bytes` (one encoded delta manifest) to the live chain file,
/// truncating any torn tail past `valid_bytes` first, and fsyncs. The
/// previous generation (`.ckpt.prev`) is untouched. `crash` as above.
Status AppendCheckpointDelta(const std::string& wal_path,
                             const std::string& bytes, uint64_t valid_bytes,
                             CheckpointCrashPoint crash);

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_CHECKPOINT_H_
