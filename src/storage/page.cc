#include "storage/page.h"

#include <algorithm>

namespace archis::storage {

Page::Page() : data_(kPageSize, 0) {
  header()->slot_count = 0;
  header()->free_offset = kPageSize;
}

void Page::Reset() {
  std::fill(data_.begin(), data_.end(), 0);
  header()->slot_count = 0;
  header()->free_offset = kPageSize;
}

uint32_t Page::free_space() const {
  const uint32_t used_front =
      sizeof(Header) + header()->slot_count * sizeof(Slot);
  return header()->free_offset - used_front;
}

bool Page::CanFit(uint32_t size) const {
  return free_space() >= size + sizeof(Slot);
}

Result<uint16_t> Page::Insert(std::string_view record) {
  if (record.size() > 0xFFFF) {
    return Status::InvalidArgument("record larger than 64KiB");
  }
  if (!CanFit(static_cast<uint32_t>(record.size()))) {
    return Status::OutOfRange("page full");
  }
  Header* h = header();
  const uint16_t slot = h->slot_count++;
  h->free_offset -= static_cast<uint16_t>(record.size());
  Slot* s = slot_at(slot);
  s->offset = h->free_offset;
  s->length = static_cast<uint16_t>(record.size());
  std::memcpy(data_.data() + s->offset, record.data(), record.size());
  return slot;
}

Result<std::string_view> Page::Read(uint16_t slot) const {
  if (slot >= header()->slot_count) {
    return Status::NotFound("slot out of range");
  }
  const Slot* s = slot_at(slot);
  if (s->offset == 0) return Status::NotFound("tombstoned slot");
  return std::string_view(data_.data() + s->offset, s->length);
}

Status Page::Delete(uint16_t slot) {
  if (slot >= header()->slot_count) {
    return Status::NotFound("slot out of range");
  }
  Slot* s = slot_at(slot);
  if (s->offset == 0) return Status::NotFound("already deleted");
  s->offset = 0;
  return Status::OK();
}

Status Page::UpdateInPlace(uint16_t slot, std::string_view record) {
  if (slot >= header()->slot_count) {
    return Status::NotFound("slot out of range");
  }
  Slot* s = slot_at(slot);
  if (s->offset == 0) return Status::NotFound("tombstoned slot");
  if (record.size() > s->length) {
    return Status::OutOfRange("record grew; relocate");
  }
  std::memcpy(data_.data() + s->offset, record.data(), record.size());
  s->length = static_cast<uint16_t>(record.size());
  return Status::OK();
}

uint16_t Page::live_records() const {
  uint16_t n = 0;
  for (uint16_t i = 0; i < header()->slot_count; ++i) {
    if (slot_at(i)->offset != 0) ++n;
  }
  return n;
}

}  // namespace archis::storage
