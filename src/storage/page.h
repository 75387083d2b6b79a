// Fixed-size slotted pages: the unit of storage and of I/O accounting.
//
// Records live in pages laid out RocksDB/textbook-style: a header, a slot
// directory growing from the front, and record bytes growing from the back.
// Deleted slots are tombstoned so record ids stay stable.
#ifndef ARCHIS_STORAGE_PAGE_H_
#define ARCHIS_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace archis::storage {

/// Size of every page in bytes. 4 KiB matches the BLOB block size the paper
/// uses for BlockZIP (4000 bytes of payload, Section 8.2).
inline constexpr uint32_t kPageSize = 4096;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Identifies a record by its page and slot.
struct RecordId {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page_id != kInvalidPageId; }
  auto operator<=>(const RecordId&) const = default;
};

/// A slotted data page.
///
/// Layout: [header | slot directory ...free space... record data]. Slots
/// store (offset, length); a zero offset with nonzero marker denotes a
/// tombstone.
class Page {
 public:
  Page();

  /// Number of slots ever allocated (including tombstones).
  uint16_t slot_count() const { return header()->slot_count; }

  /// Bytes still available for a new record (including its slot entry).
  uint32_t free_space() const;

  /// Whether a record of `size` bytes fits.
  bool CanFit(uint32_t size) const;

  /// Appends a record; returns its slot index, or OutOfRange if full.
  Result<uint16_t> Insert(std::string_view record);

  /// Reads the record in `slot`; NotFound for tombstoned/invalid slots.
  Result<std::string_view> Read(uint16_t slot) const;

  /// Tombstones `slot`. Space is not reclaimed (append-only archive store).
  Status Delete(uint16_t slot);

  /// Overwrites the record in `slot` in place when the new value is no
  /// larger; otherwise returns OutOfRange (caller re-inserts elsewhere).
  Status UpdateInPlace(uint16_t slot, std::string_view record);

  /// Empties the page: byte-identical to a freshly constructed one.
  void Reset();

  /// Raw page bytes, e.g. for persistence.
  const char* data() const { return data_.data(); }
  char* mutable_data() { return data_.data(); }

  /// Count of live (non-tombstoned) records.
  uint16_t live_records() const;

 private:
  struct Header {
    uint16_t slot_count;
    uint16_t free_offset;  // start of record data region (grows downward)
  };
  struct Slot {
    uint16_t offset;  // 0 => tombstone
    uint16_t length;
  };

  const Header* header() const {
    return reinterpret_cast<const Header*>(data_.data());
  }
  Header* header() { return reinterpret_cast<Header*>(data_.data()); }
  const Slot* slot_at(uint16_t i) const {
    return reinterpret_cast<const Slot*>(data_.data() + sizeof(Header)) + i;
  }
  Slot* slot_at(uint16_t i) {
    return reinterpret_cast<Slot*>(data_.data() + sizeof(Header)) + i;
  }

  std::vector<char> data_;
};

}  // namespace archis::storage

#endif  // ARCHIS_STORAGE_PAGE_H_
