// BlobStore: compressed blocks stored as BLOBs with per-block key ranges
// (the paper's `salary_blob(blockno, startsid, endsid, blockblob)` table,
// Section 8.2), enabling block-pruned reads for snapshot/slicing queries.
//
// Two read-path accelerations sit on top of the sid ranges:
//
//  * Temporal zone maps: each block also records the min tstart / max tend
//    over its records, so time-restricted scans skip blocks whose time
//    envelope cannot overlap the query even when their sid range does.
//  * A sharded LRU cache of decompressed blocks (opt-in via
//    set_cache_capacity), so hot blocks never pay BlockZIP inflation
//    twice. The cache is internally synchronised: concurrent readers are
//    safe once the store is built.
#ifndef ARCHIS_COMPRESS_BLOB_STORE_H_
#define ARCHIS_COMPRESS_BLOB_STORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interval.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "compress/block_zip.h"

namespace archis::compress {

/// Key metadata for one stored block: the sid (sort-key) range it covers
/// plus the temporal zone map over its records.
struct BlobBlockMeta {
  uint64_t blockno;
  int64_t start_sid;
  int64_t end_sid;
  uint64_t compressed_bytes;
  /// Zone map: day-encoded min tstart / max tend across the block's
  /// records. Blocks built without time metadata keep the open defaults,
  /// which makes the zone-map test pass for every query (never prunes).
  int64_t min_tstart = INT64_MIN;
  int64_t max_tend = INT64_MAX;
};

/// Statistics for a read operation.
struct BlobReadStats {
  uint64_t blocks_scanned = 0;
  uint64_t blocks_decompressed = 0;
  uint64_t bytes_decompressed = 0;
  uint64_t blocks_pruned_by_time = 0;  ///< skipped by the zone map alone
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
};

/// A table of compressed record blocks ordered by a monotone int64 sid.
///
/// Records must be appended in nondecreasing sid order (the archiver sorts
/// each segment by (segno, id) before compressing, which is what makes the
/// sid ranges selective).
class BlobStore {
 public:
  /// Builds the store from sid-sorted (sid, record) pairs. `times`, when
  /// non-empty, must parallel `records` and supplies the per-record
  /// [tstart, tend] used to derive each block's temporal zone map.
  Status Build(const std::vector<std::pair<int64_t, std::string>>& records,
               BlockZipOptions opts = {},
               const std::vector<TimeInterval>& times = {});

  /// Calls `fn(sid, record)` for every record with lo <= sid <= hi,
  /// decompressing only blocks whose range intersects [lo, hi]. `record`
  /// views the decompressed block and is valid only during the call.
  Status ScanRange(int64_t lo, int64_t hi,
                   const std::function<bool(int64_t, std::string_view)>& fn,
                   BlobReadStats* stats = nullptr) const;

  /// ScanRange additionally pruned by the temporal zone maps: blocks whose
  /// [min_tstart, max_tend] envelope cannot overlap `window` are skipped
  /// without decompression. Records inside surviving blocks are NOT
  /// time-filtered — every record of a surviving block whose sid is in
  /// range is yielded; row-level filtering stays with the caller.
  Status ScanRangeInterval(
      int64_t lo, int64_t hi, const std::optional<TimeInterval>& window,
      const std::function<bool(int64_t, std::string_view)>& fn,
      BlobReadStats* stats = nullptr) const;

  /// Full scan (decompresses everything).
  Status ScanAll(const std::function<bool(int64_t, std::string_view)>& fn,
                 BlobReadStats* stats = nullptr) const;

  /// Enables (bytes > 0) or disables (0) the decompressed-block LRU cache,
  /// dropping any cached blocks. Charged by raw (decompressed) bytes.
  /// Not thread-safe against concurrent scans; configure before reading.
  void set_cache_capacity(uint64_t bytes);
  uint64_t cache_capacity() const { return cache_capacity_; }

  /// Raw bytes currently held by the cache (across all shards).
  uint64_t CachedBytes() const;

  /// Number of blocks.
  size_t block_count() const { return blocks_.size(); }

  /// Blocks a window-restricted scan would have to decompress: the count
  /// of blocks whose temporal zone map overlaps `window` (all blocks when
  /// `window` is empty). Pure metadata walk — nothing is decompressed —
  /// which is what lets the planner cost a merge-scan without running it.
  uint64_t CountBlocksOverlapping(
      const std::optional<TimeInterval>& window) const;

  /// Metadata for each block (the paper's `*_segrange`-style index).
  const std::vector<BlobBlockMeta>& metadata() const { return meta_; }

  /// Total compressed bytes (the storage footprint measured in Figure 13).
  uint64_t CompressedBytes() const;

  /// Total uncompressed payload bytes.
  uint64_t RawBytes() const;

 private:
  using BlockPayloads = std::shared_ptr<const std::vector<std::string>>;

  /// The decompressed records of block `b`, via the cache when enabled.
  Result<BlockPayloads> FetchBlock(size_t b, BlobReadStats* stats) const;

  /// One lock-striped slice of the LRU cache (keyed by blockno).
  struct CacheShard {
    Mutex mu{LockRank::kBlobCacheShard};
    /// Most recently used at the front.
    std::list<uint64_t> lru ARCHIS_GUARDED_BY(mu);
    std::unordered_map<uint64_t,
                       std::pair<BlockPayloads, std::list<uint64_t>::iterator>>
        entries ARCHIS_GUARDED_BY(mu);
    uint64_t bytes ARCHIS_GUARDED_BY(mu) = 0;
  };
  static constexpr size_t kCacheShards = 8;

  std::vector<CompressedBlock> blocks_;
  std::vector<BlobBlockMeta> meta_;
  uint64_t cache_capacity_ = 0;  // 0 = cache disabled
  mutable std::array<CacheShard, kCacheShards> shards_;
};

}  // namespace archis::compress

#endif  // ARCHIS_COMPRESS_BLOB_STORE_H_
