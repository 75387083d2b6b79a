#include "storage/page_manager.h"

#include <cassert>
#include <cstdio>

#include "common/instruments.h"

namespace archis::storage {

PageId PageManager::Allocate() {
  metrics::Get(metrics::kPagesAllocated).Inc();
  MutexLock lock(mu_);
  pages_allocated_.fetch_add(1, std::memory_order_relaxed);
  if (!free_.empty()) {
    const PageId id = free_.back();
    free_.pop_back();
    return id;
  }
  pages_.push_back(std::make_unique<Page>());
  return static_cast<PageId>(pages_.size() - 1);
}

void PageManager::Free(PageId id) {
  MutexLock lock(mu_);
  assert(id < pages_.size());
  pages_[id]->Reset();
  free_.push_back(id);
}

const Page& PageManager::ReadPage(PageId id) const {
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  metrics::Get(metrics::kPageReads).Inc();
  MutexLock lock(mu_);
  assert(id < pages_.size());
  // The unique_ptr pointee is stable, so the reference stays valid after
  // the directory lock drops even if Allocate grows the vector.
  return *pages_[id];
}

Page& PageManager::WritePage(PageId id) {
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  metrics::Get(metrics::kPageWrites).Inc();
  MutexLock lock(mu_);
  assert(id < pages_.size());
  return *pages_[id];
}

Status PageManager::PersistToFile(const std::string& path) const {
  MutexLock lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const uint64_t n = pages_.size();
  if (std::fwrite(&n, sizeof(n), 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("short write on " + path);
  }
  for (const auto& p : pages_) {
    if (std::fwrite(p->data(), kPageSize, 1, f) != 1) {
      std::fclose(f);
      return Status::IOError("short write on " + path);
    }
  }
  std::fclose(f);
  return Status::OK();
}

Status PageManager::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  uint64_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1) {
    std::fclose(f);
    return Status::Corruption("truncated page file " + path);
  }
  std::vector<std::unique_ptr<Page>> pages;
  pages.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    auto p = std::make_unique<Page>();
    if (std::fread(p->mutable_data(), kPageSize, 1, f) != 1) {
      std::fclose(f);
      return Status::Corruption("truncated page file " + path);
    }
    pages.push_back(std::move(p));
  }
  std::fclose(f);
  MutexLock lock(mu_);
  pages_ = std::move(pages);
  free_.clear();
  return Status::OK();
}

}  // namespace archis::storage
