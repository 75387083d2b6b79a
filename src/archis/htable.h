// H-tables (paper Section 5.1): the relational decomposition of one
// relation's history.
//
// For a current relation R(key, a1, ..., an) ArchIS maintains
//   R_key(id, tstart, tend)            -- the key table
//   R_ai(id, ai, tstart, tend)         -- one attribute history table per ai
// each of which is a SegmentedStore. Composite keys map to a generated
// surrogate id (Section 5.1's lineitem example).
#ifndef ARCHIS_ARCHIS_HTABLE_H_
#define ARCHIS_ARCHIS_HTABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "archis/segment_manager.h"

namespace archis::core {

/// The H-table family for one archived relation.
class HTableSet {
 public:
  /// Creates key + attribute stores inside `hdb` for relation `name` with
  /// the given current-table schema. `key_columns` name the relation key
  /// (one INT64 column uses its value as id; anything else gets a
  /// surrogate).
  static Result<std::unique_ptr<HTableSet>> Create(
      minirel::Database* hdb, const std::string& name,
      const minirel::Schema& current_schema,
      const std::vector<std::string>& key_columns,
      const SegmentOptions& seg_options, Date open_date);

  const std::string& relation() const { return name_; }
  const minirel::Schema& current_schema() const { return current_schema_; }

  /// Key column names (as passed to Create).
  const std::vector<std::string>& key_columns() const { return key_columns_; }

  /// Names of the archived attribute columns (non-key columns).
  const std::vector<std::string>& attribute_names() const {
    return attr_names_;
  }

  /// Surrogate-id assignments (empty for natural single-int keys). Each
  /// entry maps the encoded key bytes to the id archived under it; the
  /// checkpoint manifest persists them so ids stay stable across recovery.
  const std::unordered_map<std::string, int64_t>& surrogate_ids() const {
    return surrogate_ids_;
  }
  int64_t next_surrogate() const { return next_surrogate_; }

  /// Restores surrogate assignments captured by a checkpoint. Must run
  /// before any archival touches this set (fresh instance during
  /// recovery); a stale mapping would hand out ids already in history.
  void RestoreSurrogates(
      const std::vector<std::pair<std::string, int64_t>>& entries,
      int64_t next_surrogate);

  /// The surrogate/natural id for a current tuple; assigns a fresh
  /// surrogate for unseen composite keys.
  Result<int64_t> IdFor(const minirel::Tuple& current_row);

  // -- Archival operations (invoked by the Archiver) -------------------------

  /// Archives a freshly inserted current tuple at `now`.
  Status ArchiveInsert(const minirel::Tuple& row, Date now);

  /// Archives an update: closes changed attribute versions and opens new
  /// ones. Unchanged attributes keep their running interval (temporal
  /// grouping — this is where the ungrouped model would duplicate).
  Status ArchiveUpdate(const minirel::Tuple& old_row,
                       const minirel::Tuple& new_row, Date now);

  /// Archives a deletion: closes the key interval and every attribute.
  Status ArchiveDelete(const minirel::Tuple& row, Date now);

  // -- Access -----------------------------------------------------------------

  /// The key table store.
  SegmentedStore* key_store() { return key_store_.get(); }
  const SegmentedStore* key_store() const { return key_store_.get(); }

  /// The history store of `attr`; NotFound for unknown attributes.
  Result<SegmentedStore*> attribute_store(const std::string& attr) const;

  /// Freezes every store (explicit archival, e.g. before compressing).
  Status FreezeAll(Date now);

  /// Snapshot of the relation at `t`, reconstructed by joining the key
  /// table with every attribute table (rows in current_schema order).
  Result<std::vector<minirel::Tuple>> Snapshot(Date t) const;

  /// Total storage across all stores.
  uint64_t StorageBytes() const;

  /// Aggregate scan stats are exposed per-store; this sums tuple counts.
  uint64_t TotalTuples() const;

 private:
  HTableSet() = default;

  std::string name_;
  minirel::Schema current_schema_;
  std::vector<std::string> key_columns_;
  std::vector<size_t> key_positions_;
  bool natural_int_key_ = false;
  std::vector<std::string> attr_names_;
  std::vector<size_t> attr_positions_;
  std::unique_ptr<SegmentedStore> key_store_;
  std::vector<std::unique_ptr<SegmentedStore>> attr_stores_;
  std::unordered_map<std::string, int64_t> surrogate_ids_;
  int64_t next_surrogate_ = 1;
};

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_HTABLE_H_
