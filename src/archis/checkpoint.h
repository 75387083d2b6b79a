// Checkpoint manifests: bounded-time crash recovery for ArchIS (DESIGN.md
// §10, §13, after the ARIES-style fuzzy checkpoints of Stasis).
//
// A checkpoint persists durable state — relation catalog, H-table store
// rows, surrogate-id assignments, current-table rows, clock and txn-id
// counter — into one CRC-framed manifest next to the WAL, together with
// the commit-sequence low-water mark. Every checkpoint writes the whole
// state; what changed since is the WAL suffix, which recovery replays
// past the manifest's absorbed commit sequence. Checkpoint cost therefore
// follows the database size and is paced by
// WalOptions::checkpoint_after_bytes.
//
// Layout (frames as in storage/log_file.*):
//
//   manifest := HEADER relation* FOOTER
//   HEADER   := magic, version, seq, clock, next_txn_id,
//               absorbed_commit_seq
//   relation := spec, interval, dropped?, surrogates, next_surrogate,
//               store rows (one list per store), current rows
//   FOOTER   := seq          (absence of the footer = torn manifest)
//
// A manifest is installed atomically: write a temp file, fsync it, rotate
// the previous manifest to `.ckpt.prev`, rename the temp file into place,
// fsync the directory. Recovery loads the newest manifest, or `.prev` when
// the newest is torn or missing.
#ifndef ARCHIS_ARCHIS_CHECKPOINT_H_
#define ARCHIS_ARCHIS_CHECKPOINT_H_

#include <cstdint>
#include <optional>
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
  /// Temp manifest written but not fsynced (nothing installed).
  kBeforeManifestSync,
  /// Temp manifest durable; the rename pair has not run.
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
  std::vector<std::pair<std::string, int64_t>> surrogates;
  int64_t next_surrogate = 1;
  /// Decoded rows, filled by ReadCheckpointManifest (CheckpointWriter
  /// streams rows instead). store_rows[0] = key table; store_rows[1 + i] =
  /// attribute i's table, in HTableSet::attribute_names() order.
  std::vector<std::vector<minirel::Tuple>> store_rows;
  /// Current-table rows (empty for dropped relations).
  std::vector<minirel::Tuple> current_rows;
};

/// Everything one checkpoint persists.
struct CheckpointManifest {
  /// Monotonic checkpoint sequence number (matches the WAL marker).
  uint64_t seq = 0;
  int64_t clock_days = 0;
  uint64_t next_txn_id = 1;
  /// Commit-sequence low-water mark: every commit with seq <= this is
  /// fully reflected in the manifest; recovery replays only WAL items
  /// above it.
  uint64_t absorbed_commit_seq = 0;
  std::vector<CheckpointRelation> relations;
};

/// Manifest file names, derived from the WAL path.
std::string CheckpointPath(const std::string& wal_path);
std::string CheckpointPrevPath(const std::string& wal_path);
std::string CheckpointTmpPath(const std::string& wal_path);

/// Row schemas of one relation's H-table stores ([0] = key table, then one
/// per non-key column in schema order), mirroring HTableSet::Create.
Result<std::vector<minirel::Schema>> StoreSchemasFor(const RelationSpec& spec);

/// Streams one manifest into its CRC-framed bytes. Rows are encoded as the
/// caller scans them, so a capture holds the encoded manifest and never a
/// decoded copy of the history. Per relation: BeginRelation, then AddRow
/// for every row of each row list — the stores of StoreSchemasFor, then
/// the current table — with NextRowList between lists, then EndRelation.
class CheckpointWriter {
 public:
  /// Starts the manifest with `header`'s header fields (its relations are
  /// ignored).
  explicit CheckpointWriter(const CheckpointManifest& header);

  /// Opens a relation frame with `rel`'s catalog fields (its rows are
  /// ignored) and its first row list, the key table's.
  Status BeginRelation(const CheckpointRelation& rel);
  /// Appends `row` to the open row list, encoded in that list's schema.
  Status AddRow(const minirel::Tuple& row);
  /// Closes the open row list and opens the next one.
  Status NextRowList();
  /// Closes the last row list (the current table's) and the frame.
  Status EndRelation();

  /// Appends the footer and returns the manifest bytes.
  std::string Finish() &&;

  /// Rows appended so far.
  uint64_t rows() const { return rows_; }

 private:
  uint64_t seq_;
  std::string out_;
  /// Offset of the open relation frame (BeginFrame's return value).
  size_t frame_start_ = 0;
  /// Row lists of the open relation: its store schemas, then its current
  /// schema; empty between relations.
  std::vector<minirel::Schema> lists_;
  size_t list_ = 0;
  /// Offset of the open list's row count, and its rows so far.
  size_t count_at_ = 0;
  uint32_t count_ = 0;
  uint64_t rows_ = 0;
};

/// Reads and validates the manifest at `path`: a header, relations and a
/// footer with the header's seq, and nothing after it. A torn or missing
/// footer, an unknown version or trailing records are Corruption.
Result<CheckpointManifest> ReadCheckpointManifest(const std::string& path);

/// The manifest recovery starts from.
struct LoadedCheckpoint {
  /// Empty when neither `<wal>.ckpt` nor `<wal>.ckpt.prev` is readable
  /// (normal for a store that has never checkpointed).
  std::optional<CheckpointManifest> manifest;
  /// Whether the newest manifest was unusable and `.ckpt.prev` was loaded.
  bool fell_back = false;
};

/// Loads `<wal>.ckpt`, falling back to `<wal>.ckpt.prev` when the newest
/// manifest is missing or unusable. Never fails: the caller decides
/// whether having no manifest is tolerable.
LoadedCheckpoint LoadCheckpoint(const std::string& wal_path);

/// Atomically installs `bytes` as the newest manifest: write the temp
/// file, fsync it, rotate ckpt -> ckpt.prev, rename tmp -> ckpt, fsync the
/// directory. `crash` injects a stop just before the named step
/// (kBeforeWalReset completes the install; the caller owns that step).
Status InstallCheckpointManifest(const std::string& wal_path,
                                 const std::string& bytes,
                                 CheckpointCrashPoint crash);

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_CHECKPOINT_H_
