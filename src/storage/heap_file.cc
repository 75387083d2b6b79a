#include "storage/heap_file.h"

namespace archis::storage {

Result<RecordId> HeapFile::Append(std::string_view record) {
  const auto size = static_cast<uint32_t>(record.size());
  Page* page = pages_.empty() ? nullptr : &pm_->WritePage(pages_.back());
  if (page == nullptr || !page->CanFit(size)) {
    pages_.push_back(pm_->Allocate());
    page = &pm_->WritePage(pages_.back());
  }
  ARCHIS_ASSIGN_OR_RETURN(uint16_t slot, page->Insert(record));
  return RecordId{pages_.back(), slot};
}

Result<std::string> HeapFile::Read(const RecordId& rid) const {
  const Page& page = pm_->ReadPage(rid.page_id);
  ARCHIS_ASSIGN_OR_RETURN(std::string_view bytes, page.Read(rid.slot));
  return std::string(bytes);
}

Status HeapFile::Delete(const RecordId& rid) {
  return pm_->WritePage(rid.page_id).Delete(rid.slot);
}

Status HeapFile::Update(RecordId* rid, std::string_view record) {
  Page& page = pm_->WritePage(rid->page_id);
  Status st = page.UpdateInPlace(rid->slot, record);
  if (st.ok()) return st;
  if (st.code() != StatusCode::kOutOfRange) return st;
  ARCHIS_RETURN_NOT_OK(page.Delete(rid->slot));
  ARCHIS_ASSIGN_OR_RETURN(RecordId fresh, Append(record));
  *rid = fresh;
  return Status::OK();
}

void HeapFile::Scan(const std::function<bool(const RecordId&,
                                             std::string_view)>& fn) const {
  ScanPages(pages_, fn);
}

void HeapFile::ScanPages(
    const std::vector<PageId>& pages,
    const std::function<bool(const RecordId&, std::string_view)>& fn) const {
  for (PageId pid : pages) {
    const Page& page = pm_->ReadPage(pid);
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      auto bytes = page.Read(s);
      if (!bytes.ok()) continue;  // tombstone
      if (!fn(RecordId{pid, s}, *bytes)) return;
    }
  }
}

void HeapFile::Clear() {
  for (PageId pid : pages_) pm_->Free(pid);
  pages_.clear();
}

uint64_t HeapFile::CountLive() const {
  uint64_t n = 0;
  Scan([&n](const RecordId&, std::string_view) {
    ++n;
    return true;
  });
  return n;
}

}  // namespace archis::storage
