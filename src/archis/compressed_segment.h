// A frozen, BlockZIP-compressed segment (paper Section 8.2).
//
// Rows are sorted by id and stored in a BlobStore keyed by the id, so a
// single-object lookup decompresses only the covering blocks while a
// whole-segment scan decompresses all of them. Each block also carries a
// temporal zone map (min tstart / max tend of its rows), so time-windowed
// scans can skip blocks whose time envelope misses the query even when
// their id range covers it.
#ifndef ARCHIS_ARCHIS_COMPRESSED_SEGMENT_H_
#define ARCHIS_ARCHIS_COMPRESSED_SEGMENT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compress/blob_store.h"
#include "minirel/tuple.h"

namespace archis::core {

/// BlockZIP-compressed storage for one frozen segment's rows.
class CompressedSegment {
 public:
  /// Compresses id-sorted (id, record) pairs, each record a row encoded
  /// with `schema` (tstart and tend in the last two columns), whose
  /// intervals `times` parallels. `cache_bytes` > 0 enables the
  /// decompressed-block LRU cache of the underlying BlobStore.
  static Result<std::unique_ptr<CompressedSegment>> Build(
      const minirel::Schema& schema,
      const std::vector<std::pair<int64_t, std::string>>& records,
      const std::vector<TimeInterval>& times, size_t block_size,
      uint64_t cache_bytes = 0);

  /// Decodes rows in stored (id, tstart) order. `id` restricts to one
  /// object via the block sid ranges; `window` skips blocks via the
  /// temporal zone maps. Rows of surviving blocks are NOT time-filtered —
  /// the zone map is a block-level test only, row-level filtering stays
  /// with the caller (which preserves the cross-segment dedup contract of
  /// SegmentedStore::ScanSegments). A record that does not decode under
  /// the schema fails the scan with Corruption.
  Status Scan(std::optional<int64_t> id,
              const std::optional<TimeInterval>& window,
              const std::function<bool(const minirel::Tuple&)>& fn,
              compress::BlobReadStats* stats = nullptr) const;

  /// Decodes and yields every row.
  Status ScanAll(const std::function<bool(const minirel::Tuple&)>& fn,
                 compress::BlobReadStats* stats = nullptr) const;

  /// Decodes only rows with the given id (block-pruned).
  Status ScanId(int64_t id,
                const std::function<bool(const minirel::Tuple&)>& fn,
                compress::BlobReadStats* stats = nullptr) const;

  uint64_t CompressedBytes() const { return store_.CompressedBytes(); }
  uint64_t RawBytes() const { return store_.RawBytes(); }
  size_t block_count() const { return store_.block_count(); }

  /// Blocks a `window`-restricted Scan would decompress after zone-map
  /// pruning (all of them when `window` is empty). Metadata only.
  uint64_t BlocksOverlapping(const std::optional<TimeInterval>& window) const {
    return store_.CountBlocksOverlapping(window);
  }

  const compress::BlobStore& store() const { return store_; }

 private:
  CompressedSegment() = default;

  minirel::Schema schema_;
  compress::BlobStore store_;
};

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_COMPRESSED_SEGMENT_H_
