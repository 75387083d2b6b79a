// PageManager: owns all pages of a database instance and accounts for
// logical I/O.
//
// The engine is memory-resident (the reproduction runs laptop-scale data)
// but every page access is counted, so benchmarks can report both wall time
// and pages touched — the quantity that actually drove the paper's
// disk-bound numbers. Pages can be persisted to / restored from a file to
// measure on-disk storage footprints (Figures 7, 11, 13).
#ifndef ARCHIS_STORAGE_PAGE_MANAGER_H_
#define ARCHIS_STORAGE_PAGE_MANAGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace archis::storage {

/// A snapshot of the logical I/O performed through a PageManager.
struct IoStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pages_allocated = 0;
};

/// Allocates, pins and persists pages.
class PageManager {
 public:
  PageManager() = default;
  PageManager(const PageManager&) = delete;
  PageManager& operator=(const PageManager&) = delete;

  /// Allocates an empty page and returns its id, reusing a freed page
  /// before growing the directory. Thread-safe: the page directory is
  /// mutex-protected, so allocation may race with concurrent
  /// ReadPage/WritePage on other pages.
  PageId Allocate() ARCHIS_EXCLUDES(mu_);

  /// Returns `id` to the allocator. Its bytes are reset at once; the
  /// caller must hold no other reference to it.
  void Free(PageId id) ARCHIS_EXCLUDES(mu_);

  /// Read access; bumps the page-read counter. Concurrent ReadPage calls
  /// are safe (page pointers are stable and the directory lookup is
  /// locked), which is what allows parallel segment scans to share one
  /// PageManager. Byte-level access to one page from multiple threads is
  /// the caller's problem.
  const Page& ReadPage(PageId id) const ARCHIS_EXCLUDES(mu_);

  /// Write access; bumps the page-write counter.
  Page& WritePage(PageId id) ARCHIS_EXCLUDES(mu_);

  /// Number of pages in the directory, free ones included.
  size_t page_count() const ARCHIS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return pages_.size();
  }

  /// Total bytes occupied by all pages (page_count * kPageSize).
  uint64_t total_bytes() const ARCHIS_EXCLUDES(mu_) {
    return page_count() * uint64_t{kPageSize};
  }

  IoStats stats() const {
    IoStats s;
    s.page_reads = page_reads_.load(std::memory_order_relaxed);
    s.page_writes = page_writes_.load(std::memory_order_relaxed);
    s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    page_reads_.store(0, std::memory_order_relaxed);
    page_writes_.store(0, std::memory_order_relaxed);
    pages_allocated_.store(0, std::memory_order_relaxed);
  }

  /// Writes all pages to `path` (simple length-prefixed dump).
  Status PersistToFile(const std::string& path) const ARCHIS_EXCLUDES(mu_);

  /// Replaces the current pages with the contents of `path`; every loaded
  /// page counts as allocated. Must not run concurrently with reads (it
  /// swaps the whole directory).
  Status LoadFromFile(const std::string& path) ARCHIS_EXCLUDES(mu_);

 private:
  /// Protects the page directory (the vector itself, not page contents;
  /// pages are heap-allocated so references stay valid across Allocate).
  mutable Mutex mu_{LockRank::kPageManager};
  std::vector<std::unique_ptr<Page>> pages_ ARCHIS_GUARDED_BY(mu_);
  /// Freed pages, reused last-freed first.
  std::vector<PageId> free_ ARCHIS_GUARDED_BY(mu_);
  mutable std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_writes_{0};
  std::atomic<uint64_t> pages_allocated_{0};
};

}  // namespace archis::storage

#endif  // ARCHIS_STORAGE_PAGE_MANAGER_H_
