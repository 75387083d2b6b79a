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
// Every scan is one k-way merge over record bytes, by (id, tstart). An
// uncompressed frozen segment is a page run: its rows sit back to back in
// __arch in (id, tstart) order on pages recorded at freeze, and the merge
// walks them a page at a time through views into those pages (they are
// never freed or rewritten). The live segment and compressed blocks are
// copied into a per-scan byte arena first: a freeze frees live pages and
// the block cache evicts blocks, so the scan holds no view into either.
// The live run is sorted in the arena when it is merged with other runs;
// alone it streams in storage order. The newest copy of a version wins.
// The time filter reads a record's last 16 bytes, and only rows that pass
// are decoded. A version closed after a freeze copied it open keeps tend =
// forever in that frozen copy; scans correct such copies from an in-memory
// map of late closes, so every source reports the version's real tend.
// Concurrent read-only scans of one store are thread-safe; scans
// concurrent with updates are not.
#ifndef ARCHIS_ARCHIS_SEGMENT_MANAGER_H_
#define ARCHIS_ARCHIS_SEGMENT_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "archis/compressed_segment.h"
#include "common/interval.h"
#include "common/mutex.h"
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
/// The id is column 0; tstart/tend are the last two columns. INT64 and
/// DATE encode as fixed 8-byte integers, so the update path and the scans
/// read a record's id and interval straight from its bytes.
///
/// The live segment changes in exactly three ways: a version is appended,
/// an open version's 8-byte tend is closed in place, or a version opened
/// today gets its values replaced (same-day last-writer-wins). Frozen
/// segments never change.
class SegmentedStore {
 public:
  /// Creates the backing tables inside `db`:
  ///   <name>__live  (id, values..., tstart, tend)      + index on id
  ///   <name>__arch  (segno, id, values..., tstart, tend) + index (segno,id)
  /// `track_dirty` keeps the checkpoint dirty set (WAL-backed instances
  /// only: nothing else drains it).
  static Result<std::unique_ptr<SegmentedStore>> Create(
      minirel::Database* db, const std::string& name,
      const minirel::Schema& row_schema, SegmentOptions options,
      Date open_date, bool track_dirty = false);

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
  /// the version is new. Recovery-only, like LoadCheckpointRows.
  Status UpsertCheckpointRow(const minirel::Tuple& row);

  // -- Dirty tracking (fuzzy incremental checkpoints, DESIGN.md §13) --------

  /// Version identities (id, tstart days) written since the last
  /// checkpoint capture. A checkpoint drains this with TakeDirty(),
  /// serializes the named rows into a delta manifest, and merges the set
  /// back with MergeDirty() if the install fails. Always empty unless the
  /// store was created with `track_dirty`.
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

  /// The BlockZIP blob of frozen segment `index` (its position in
  /// segments()); nullptr for uncompressed segments.
  const CompressedSegment* compressed_segment(size_t index) const {
    return index < frozen_.size() ? frozen_[index].blob.get() : nullptr;
  }

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
  /// Encodes (id, values..., tstart, tend) in row_schema_'s record format,
  /// checking the values' arity and types.
  Result<std::string> EncodeVersion(int64_t id,
                                    const std::vector<minirel::Value>& values,
                                    Date tstart, Date tend) const;
  /// Adds the encoded version `record` of `id` to the live segment.
  Status AddVersion(int64_t id, std::string_view record,
                    const TimeInterval& interval);
  /// Locates the open (tend = forever) live record for `id`; NotFound if
  /// none.
  Status FindOpenVersion(int64_t id, storage::RecordId* rid,
                         std::string* record) const;
  /// Closes the open version `record` of `id` at `rid`: tend = now - 1,
  /// clamped to tstart, written over the record's last 8 bytes.
  Status CloseOpenVersion(int64_t id, storage::RecordId rid,
                          std::string* record, Date now);
  /// One merge source of a scan and the byte arena its copies live in
  /// (segment_manager.cc).
  struct Run;
  class Arena;
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
  /// Records the closing of a live version: when a freeze already copied
  /// it while it was open, the frozen copy still says tend = forever.
  void NoteClose(int64_t id, Date tstart, Date tend);
  /// Copies the live segment's records (the id's versions under
  /// `id_filter`) into `arena`, in storage order.
  Status OpenLiveRun(std::optional<int64_t> id_filter, Arena* arena,
                     Run* run, StoreScanStats* stats) const;
  /// Opens frozen segment `segno` as a run: a page run, the id's records
  /// through the (segno, id) index, or the blocks of a compressed segment
  /// that survive `window`'s zone-map test, copied into `arena`.
  Status OpenFrozenRun(int64_t segno, const std::optional<TimeInterval>& window,
                       std::optional<int64_t> id_filter, Arena* arena,
                       Run* run, StoreScanStats* stats) const;
  /// Buffers the next page of an exhausted page run.
  Status Refill(Run* run, StoreScanStats* stats) const;
  /// Filters one version's record and, if it passes, decodes it for `fn`;
  /// a frozen copy of a since-closed version gets its real tend first.
  /// Returns `fn`'s verdict (true when the row was filtered out).
  Result<bool> Emit(std::string_view record, bool frozen,
                    const std::optional<TimeInterval>& filter,
                    const std::function<bool(const minirel::Tuple&)>& fn) const;
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
  /// Where the rows of frozen segment i (its position in segments_) are.
  struct FrozenRows {
    /// The BlockZIP blob; nullptr when the rows are in __arch.
    std::unique_ptr<CompressedSegment> blob;
    /// The __arch pages holding the rows back to back from slot
    /// `first_slot` of the first page on; the segment's tuple_count ends
    /// the run. Recorded at freeze: later freezes append to the heap's page
    /// list, which a scan therefore never reads.
    std::vector<storage::PageId> pages;
    uint16_t first_slot = 0;
  };
  std::vector<FrozenRows> frozen_;
  Date live_start_;
  /// Versions written since the last checkpoint capture, by identity
  /// (id, tstart days) — the same key the multi-segment merge uses, so a
  /// delta row replayed onto a restored store lands on the right version.
  std::set<std::pair<int64_t, int64_t>> dirty_;
  bool track_dirty_ = false;
  /// Authoritative tend of versions closed after a freeze copied them open,
  /// by identity (id, tstart days). Frozen copies are immutable, so a scan
  /// that reaches such a version only through older segments (a snapshot
  /// or slice pruned away from the live segment) corrects its tend here
  /// rather than reporting it still open. In memory only: recovery
  /// restores into the live segment and rebuilds it by replaying closes.
  /// Commits insert while archisd's queries scan, hence the leaf lock.
  mutable Mutex closes_mu_{LockRank::kSegmentCloses};
  std::map<std::pair<int64_t, int64_t>, Date> closed_after_freeze_
      ARCHIS_GUARDED_BY(closes_mu_);
  int64_t next_segno_ = 1;
  uint64_t live_total_ = 0;
  uint64_t live_current_ = 0;
  size_t tstart_col_ = 0;  // within row_schema_
  size_t tend_col_ = 0;
};

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_SEGMENT_MANAGER_H_
