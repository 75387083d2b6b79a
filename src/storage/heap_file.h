// HeapFile: an append-oriented sequence of pages holding variable-length
// records, addressed by RecordId. Tables and segments are heap files.
#ifndef ARCHIS_STORAGE_HEAP_FILE_H_
#define ARCHIS_STORAGE_HEAP_FILE_H_

#include <functional>
#include <string>
#include <vector>

#include "storage/page_manager.h"

namespace archis::storage {

/// A heap file over a PageManager.
///
/// Records append to the last page, spilling to a new page when full.
/// Deletion tombstones; record ids are stable. Iteration visits live
/// records in (page, slot) order — for sorted bulk loads this preserves
/// the load order, which the archiver relies on for id-ordered merge joins.
class HeapFile {
 public:
  explicit HeapFile(PageManager* pm) : pm_(pm) {}

  /// Appends `record`; returns its RecordId.
  Result<RecordId> Append(std::string_view record);

  /// Reads the record at `rid` (copy, so callers may outlive page churn).
  Result<std::string> Read(const RecordId& rid) const;

  /// Tombstones the record at `rid`.
  Status Delete(const RecordId& rid);

  /// In-place update when it fits, else delete + re-append; the (possibly
  /// new) RecordId is stored back into `rid`.
  Status Update(RecordId* rid, std::string_view record);

  /// Calls `fn(rid, bytes)` for every live record; stops early if `fn`
  /// returns false.
  void Scan(const std::function<bool(const RecordId&,
                                     std::string_view)>& fn) const;

  /// Scans only the given pages (used for segment-pruned access paths).
  void ScanPages(const std::vector<PageId>& pages,
                 const std::function<bool(const RecordId&,
                                          std::string_view)>& fn) const;

  /// Number of live records (full scan).
  uint64_t CountLive() const;

  /// Pages owned by this heap file, in append order.
  const std::vector<PageId>& pages() const { return pages_; }

  /// Storage footprint in bytes (pages * page size).
  uint64_t SizeBytes() const { return pages_.size() * uint64_t{kPageSize}; }

  /// Returns every page to the PageManager for reuse and empties the file
  /// (the paper's "old live segment is dropped" step). Record ids into
  /// this file are dead afterwards.
  void Clear();

 private:
  PageManager* pm_;
  std::vector<PageId> pages_;
};

}  // namespace archis::storage

#endif  // ARCHIS_STORAGE_HEAP_FILE_H_
