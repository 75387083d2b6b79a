// Usefulness-based segment clustering (paper Section 6).
//
// Each H-table (key table or attribute history table) is a SegmentedStore:
// a live segment receiving all updates plus a chain of frozen, id-sorted
// archived segments. A segment's usefulness U = N_live / N_all decays as
// tuples are closed; when U drops below U_min the live segment is frozen:
//
//   1. a new segment number is allocated and its interval recorded,
//   2. ALL tuples of the live segment are copied into the archived segment
//      sorted by id (and optionally BlockZIP-compressed),
//   3. live tuples are copied into a fresh live segment, the old one drops.
//
// Invariants (1) tstart_tuple <= segend and (2) tend_tuple >= segstart hold
// for every tuple in a frozen segment, which is what makes the segment
// table a valid pruning index for snapshot and slicing queries.
//
// Read path: queries prune at three granularities — segment (the interval
// table), block (temporal zone maps inside compressed segments), and row.
// A scan over one source streams it in storage order. A scan over several
// sources k-way merges them by (id, tstart): frozen segments already hold
// id-sorted runs, the live run is sorted, and the newest copy of a version
// wins. Concurrent read-only scans of one store are thread-safe; scans
// concurrent with updates are not.
#ifndef ARCHIS_ARCHIS_SEGMENT_MANAGER_H_
#define ARCHIS_ARCHIS_SEGMENT_MANAGER_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "archis/compressed_segment.h"
#include "archis/stats.h"
#include "common/interval.h"
#include "minirel/database.h"

namespace archis::core {

/// Metadata row of the paper's `segment(segno, segstart, segend)` table,
/// extended with the per-segment statistics the cost-based planner reads
/// (DESIGN.md §11). distinct_ids is exact — rows are id-sorted at freeze
/// time, so counting id transitions is free.
struct SegmentInfo {
  int64_t segno;
  TimeInterval interval;
  bool compressed = false;
  uint64_t tuple_count = 0;
  uint64_t distinct_ids = 0;
  /// BlockZIP blocks (0 for uncompressed segments).
  uint64_t blocks = 0;
};

/// Tuning knobs for a SegmentedStore.
struct SegmentOptions {
  /// Master switch: disabled reproduces the paper's "without clustering"
  /// baseline (one flat history table).
  bool enabled = true;
  /// Minimum tolerable usefulness U_min (paper sweeps 0.2 .. 0.4).
  double umin = 0.4;
  /// BlockZIP-compress frozen segments (paper Section 8).
  bool compress = false;
  /// BlockZIP block size (paper uses 4000-byte BLOBs).
  size_t block_size = 4000;
  /// Capacity of the decompressed-block LRU cache per store, in bytes
  /// (0 disables). Only compressed segments use it.
  uint64_t block_cache_bytes = 16ull << 20;
};

/// Read-path statistics (what the paper's disk-bound timings measured).
struct StoreScanStats {
  uint64_t segments_considered = 0;
  uint64_t segments_scanned = 0;
  uint64_t tuples_scanned = 0;
  uint64_t blocks_decompressed = 0;
  uint64_t blocks_pruned_by_time = 0;  ///< skipped via temporal zone maps
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
};

/// One segmented H-table.
///
/// Row layout: (id INT64, <value columns...>, tstart DATE, tend DATE).
/// The id is column 0; tstart/tend are the last two columns.
class SegmentedStore {
 public:
  /// Creates the backing tables inside `db`:
  ///   <name>__live  (id, values..., tstart, tend)      + index on id
  ///   <name>__arch  (segno, id, values..., tstart, tend) + index (segno,id)
  static Result<std::unique_ptr<SegmentedStore>> Create(
      minirel::Database* db, const std::string& name,
      const minirel::Schema& row_schema, SegmentOptions options,
      Date open_date);

  /// Releases this store's contribution to the process-wide frozen-segment
  /// gauge (archis_frozen_segments).
  ~SegmentedStore();

  const std::string& name() const { return name_; }
  const minirel::Schema& row_schema() const { return row_schema_; }
  const SegmentOptions& options() const { return options_; }

  // -- Update path ----------------------------------------------------------

  /// Appends a new current version (tstart = `now`, tend = forever).
  /// `values` are the value columns only (no id/tstart/tend).
  Status InsertVersion(int64_t id, const std::vector<minirel::Value>& values,
                       Date now);

  /// Closes the current version for `id` (tend = now - 1). NotFound if no
  /// live version exists. Clamps so tend >= tstart.
  Status CloseVersion(int64_t id, Date now);

  /// Replaces the current version for `id` with `values` as of `now`: closes
  /// the open version at now - 1 and appends a new current one. When the open
  /// version also started on `now` it is rewritten in place instead
  /// (day-granularity last-writer-wins) — closing it would mint a second
  /// version with the same (id, tstart), which is the key the multi-source
  /// scan merge treats as "same version, newest copy wins".
  Status ReplaceVersion(int64_t id, const std::vector<minirel::Value>& values,
                        Date now);

  /// Bulk-loads a version with an explicit interval (the H-document import
  /// path). The row lands in the live segment; normal freezing applies on
  /// subsequent updates.
  Status LoadVersion(int64_t id, const std::vector<minirel::Value>& values,
                     const TimeInterval& interval);

  /// Restores a store's full logical history from checkpoint rows: each
  /// row is a complete (id, values..., tstart, tend) tuple in row-schema
  /// order, landing in the live segment. The store must be empty — this is
  /// the recovery path, not an append path; physical segmentation is
  /// rebuilt lazily by subsequent freezes.
  Status LoadCheckpointRows(const std::vector<minirel::Tuple>& rows);

  /// Applies one checkpoint-delta row by version identity (id, tstart):
  /// rewrites the matching live row in place, or bulk-loads the row when
  /// the version is new. Recovery-only, like LoadCheckpointRows; the
  /// caller installs the delta's statistics snapshot afterwards.
  Status UpsertCheckpointRow(const minirel::Tuple& row);

  // -- Dirty tracking (fuzzy incremental checkpoints, DESIGN.md §13) --------

  /// Version identities (id, tstart days) written since the last
  /// checkpoint capture. A checkpoint drains this with TakeDirty(),
  /// serializes the named rows into a delta manifest, and merges the set
  /// back with MergeDirty() if the install fails.
  size_t dirty_count() const { return dirty_.size(); }
  std::set<std::pair<int64_t, int64_t>> TakeDirty();
  void MergeDirty(const std::set<std::pair<int64_t, int64_t>>& dirty);
  /// Recovery hook: restored rows are not "dirty" (they are already in
  /// the manifest chain), so restore clears before WAL replay re-marks.
  void ClearDirty() { dirty_.clear(); }

  /// Current usefulness of the live segment (1.0 when empty).
  double Usefulness() const;

  /// Freezes the live segment unconditionally (used when archiving a
  /// database or for tests). No-op when the live segment is empty.
  Status Freeze(Date now);

  // -- Read path ------------------------------------------------------------

  /// Rows whose interval overlaps `query`, deduplicated across segments
  /// (a tuple frozen in an older segment is superseded by its copy in a
  /// newer one). `fn` receives (id, full row tuple).
  Status ScanInterval(const TimeInterval& query,
                      const std::function<bool(const minirel::Tuple&)>& fn,
                      StoreScanStats* stats = nullptr) const;

  /// Rows valid at `t` (snapshot): prunes to the covering segment.
  Status ScanSnapshot(Date t,
                      const std::function<bool(const minirel::Tuple&)>& fn,
                      StoreScanStats* stats = nullptr) const;

  /// Entire deduplicated history.
  Status ScanHistory(const std::function<bool(const minirel::Tuple&)>& fn,
                     StoreScanStats* stats = nullptr) const;

  /// History of a single id (uses the id index / block pruning).
  Status ScanId(int64_t id,
                const std::function<bool(const minirel::Tuple&)>& fn,
                StoreScanStats* stats = nullptr) const;

  // -- Introspection ---------------------------------------------------------

  /// The segment metadata table (frozen segments only).
  const std::vector<SegmentInfo>& segments() const { return segments_; }

  /// The statistics catalog entry for this store, maintained incrementally
  /// by the update path and rebuilt by recovery (LoadCheckpointRows routes
  /// through LoadVersion).
  const StoreStatistics& statistics() const { return stats_; }

  /// Installs a statistics snapshot captured by a checkpoint manifest,
  /// replacing whatever the restore rebuild accumulated. Recovery calls
  /// this after LoadCheckpointRows so planner estimates match the
  /// checkpointed instance exactly.
  void RestoreStatistics(StoreStatistics stats) { stats_ = std::move(stats); }

  /// Blocks of frozen segment `index` (its position in segments()) that a
  /// scan restricted to `window` would decompress, after temporal zone-map
  /// pruning. 0 for uncompressed segments; metadata only, nothing is read.
  uint64_t BlocksOverlapping(size_t index,
                             const std::optional<TimeInterval>& window) const;

  /// Heap statistics of the live segment's backing table (page counts for
  /// the planner's live-scan cost).
  minirel::TableStats LiveTableStats() const;

  /// Interval covered by the live segment so far: [live_start, now-ish].
  Date live_start() const { return live_start_; }

  /// Tuples in the live segment (all / live).
  uint64_t live_total() const { return live_total_; }
  uint64_t live_current() const { return live_current_; }

  /// Storage footprint: live pages + archived pages + compressed blobs.
  uint64_t StorageBytes() const;

  /// Total tuples across live + frozen segments (with duplication).
  uint64_t TotalTuples() const;

  /// Logical tuples (deduplicated history size).
  uint64_t LogicalTuples() const;

 private:
  SegmentedStore() = default;

  Status FreezeIfNeeded(Date now);
  /// Locates the open (tend = forever) live row for `id`; NotFound if none.
  Status FindOpenVersion(int64_t id, std::optional<storage::RecordId>* rid,
                         std::optional<minirel::Tuple>* row);
  /// Scans the frozen segments `segnos` (oldest first) plus, optionally,
  /// the live segment. Rows outside `filter` or not matching `id_filter`
  /// are dropped; with more than one source the newest copy of each
  /// version (id, tstart) is the one filtered and emitted, in (id, tstart)
  /// order.
  Status ScanSegments(const std::vector<int64_t>& segnos, bool include_live,
                      const std::optional<TimeInterval>& filter,
                      std::optional<int64_t> id_filter,
                      const std::function<bool(const minirel::Tuple&)>& fn,
                      StoreScanStats* stats) const;
  /// Scans the live segment (via the id index under `id_filter`), yielding
  /// raw rows in storage order.
  Status ScanLive(std::optional<int64_t> id_filter,
                  const std::function<bool(const minirel::Tuple&)>& fn,
                  StoreScanStats* stats) const;
  /// Scans one frozen segment, yielding raw rows (no dedup/time filter;
  /// `window` only drives block-level zone-map pruning).
  Status ScanFrozenSegment(
      int64_t segno, const std::optional<TimeInterval>& window,
      std::optional<int64_t> id_filter,
      const std::function<bool(const minirel::Tuple&)>& fn,
      StoreScanStats* stats) const;
  /// Frozen segments whose interval overlaps `iv`, oldest first.
  std::vector<int64_t> CoveringSegments(const TimeInterval& iv) const;

  std::string name_;
  minirel::Schema row_schema_;   // (id, values..., tstart, tend)
  minirel::Schema arch_schema_;  // (segno, id, values..., tstart, tend)
  SegmentOptions options_;
  minirel::Database* db_ = nullptr;
  minirel::Table* live_ = nullptr;
  minirel::Table* arch_ = nullptr;
  std::vector<SegmentInfo> segments_;
  std::vector<std::unique_ptr<CompressedSegment>> compressed_;  // by index
  Date live_start_;
  StoreStatistics stats_;
  /// Versions written since the last checkpoint capture, by identity
  /// (id, tstart days) — the same key the multi-segment merge uses, so a
  /// delta row replayed onto a restored store lands on the right version.
  std::set<std::pair<int64_t, int64_t>> dirty_;
  int64_t next_segno_ = 1;
  uint64_t live_total_ = 0;
  uint64_t live_current_ = 0;
  size_t tstart_col_ = 0;  // within row_schema_
  size_t tend_col_ = 0;
};

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_SEGMENT_MANAGER_H_
