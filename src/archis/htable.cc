#include "archis/htable.h"

#include <algorithm>
#include <unordered_map>

namespace archis::core {

using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;
using minirel::Value;

Result<std::unique_ptr<HTableSet>> HTableSet::Create(
    minirel::Database* hdb, const std::string& name,
    const Schema& current_schema,
    const std::vector<std::string>& key_columns,
    const SegmentOptions& seg_options, Date open_date) {
  if (key_columns.empty()) {
    return Status::InvalidArgument("relation needs at least one key column");
  }
  auto set = std::unique_ptr<HTableSet>(new HTableSet());
  set->name_ = name;
  set->current_schema_ = current_schema;
  set->key_columns_ = key_columns;
  for (const std::string& k : key_columns) {
    ARCHIS_ASSIGN_OR_RETURN(size_t pos, current_schema.ColumnIndex(k));
    set->key_positions_.push_back(pos);
  }
  set->natural_int_key_ =
      key_columns.size() == 1 &&
      current_schema.column(set->key_positions_[0]).type == DataType::kInt64;

  // Key table: R_key(id, tstart, tend).
  Schema key_schema({{"id", DataType::kInt64},
                     {"tstart", DataType::kDate},
                     {"tend", DataType::kDate}});
  ARCHIS_ASSIGN_OR_RETURN(
      set->key_store_,
      SegmentedStore::Create(hdb, name + "_key", key_schema, seg_options,
                             open_date));

  // One attribute history table per non-key column.
  for (size_t i = 0; i < current_schema.num_columns(); ++i) {
    bool is_key = false;
    for (size_t kp : set->key_positions_) is_key |= (kp == i);
    if (is_key) continue;
    const auto& col = current_schema.column(i);
    set->attr_names_.push_back(col.name);
    set->attr_positions_.push_back(i);
    Schema attr_schema({{"id", DataType::kInt64},
                        {col.name, col.type},
                        {"tstart", DataType::kDate},
                        {"tend", DataType::kDate}});
    ARCHIS_ASSIGN_OR_RETURN(
        std::unique_ptr<SegmentedStore> store,
        SegmentedStore::Create(hdb, name + "_" + col.name, attr_schema,
                               seg_options, open_date));
    set->attr_stores_.push_back(std::move(store));
  }
  return set;
}

void HTableSet::RestoreSurrogates(
    const std::vector<std::pair<std::string, int64_t>>& entries,
    int64_t next_surrogate) {
  surrogate_ids_.clear();
  for (const auto& [key, id] : entries) surrogate_ids_[key] = id;
  next_surrogate_ = next_surrogate;
}

Result<int64_t> HTableSet::IdFor(const Tuple& current_row) {
  if (natural_int_key_) {
    return current_row.at(key_positions_[0]).AsInt();
  }
  std::string encoded;
  for (size_t kp : key_positions_) {
    current_row.at(kp).EncodeTo(&encoded);
  }
  auto [it, inserted] = surrogate_ids_.try_emplace(encoded, next_surrogate_);
  if (inserted) ++next_surrogate_;
  return it->second;
}

Status HTableSet::ArchiveInsert(const Tuple& row, Date now) {
  ARCHIS_ASSIGN_OR_RETURN(int64_t id, IdFor(row));
  ARCHIS_RETURN_NOT_OK(key_store_->InsertVersion(id, {}, now));
  for (size_t a = 0; a < attr_stores_.size(); ++a) {
    ARCHIS_RETURN_NOT_OK(attr_stores_[a]->InsertVersion(
        id, {row.at(attr_positions_[a])}, now));
  }
  return Status::OK();
}

Status HTableSet::ArchiveUpdate(const Tuple& old_row, const Tuple& new_row,
                                Date now) {
  ARCHIS_ASSIGN_OR_RETURN(int64_t id, IdFor(old_row));
  for (size_t a = 0; a < attr_stores_.size(); ++a) {
    const Value& old_v = old_row.at(attr_positions_[a]);
    const Value& new_v = new_row.at(attr_positions_[a]);
    if (old_v == new_v) continue;  // grouped: running interval continues
    ARCHIS_RETURN_NOT_OK(attr_stores_[a]->ReplaceVersion(id, {new_v}, now));
  }
  return Status::OK();
}

Status HTableSet::ArchiveDelete(const Tuple& row, Date now) {
  ARCHIS_ASSIGN_OR_RETURN(int64_t id, IdFor(row));
  ARCHIS_RETURN_NOT_OK(key_store_->CloseVersion(id, now));
  for (const auto& store : attr_stores_) {
    ARCHIS_RETURN_NOT_OK(store->CloseVersion(id, now));
  }
  return Status::OK();
}

Result<SegmentedStore*> HTableSet::attribute_store(
    const std::string& attr) const {
  for (size_t a = 0; a < attr_names_.size(); ++a) {
    if (attr_names_[a] == attr) return attr_stores_[a].get();
  }
  return Status::NotFound("relation " + name_ + " has no attribute history '" +
                          attr + "'");
}

Status HTableSet::FreezeAll(Date now) {
  ARCHIS_RETURN_NOT_OK(key_store_->Freeze(now));
  for (const auto& store : attr_stores_) {
    ARCHIS_RETURN_NOT_OK(store->Freeze(now));
  }
  return Status::OK();
}

Result<std::vector<Tuple>> HTableSet::Snapshot(Date t) const {
  // Live ids at t.
  std::vector<int64_t> ids;
  ARCHIS_RETURN_NOT_OK(key_store_->ScanSnapshot(t, [&](const Tuple& row) {
    ids.push_back(row.at(0).AsInt());
    return true;
  }));
  // Attribute values at t, per store. Hash maps: the reassembly loop below
  // probes per (id, attribute), and output order comes from `ids`, not the
  // map, so ordered containers only cost here.
  std::vector<std::unordered_map<int64_t, Value>> attr_values(
      attr_stores_.size());
  for (size_t a = 0; a < attr_stores_.size(); ++a) {
    attr_values[a].reserve(ids.size());
    ARCHIS_RETURN_NOT_OK(
        attr_stores_[a]->ScanSnapshot(t, [&](const Tuple& row) {
          attr_values[a][row.at(0).AsInt()] = row.at(1);
          return true;
        }));
  }
  // Reassemble rows in current-schema order.
  std::vector<Tuple> out;
  for (int64_t id : ids) {
    Tuple row;
    size_t attr_idx = 0;
    bool complete = true;
    for (size_t i = 0; i < current_schema_.num_columns(); ++i) {
      bool is_key = false;
      for (size_t kp : key_positions_) is_key |= (kp == i);
      if (is_key) {
        // Only natural single int keys can be reconstructed; surrogate keys
        // reproduce the surrogate id.
        row.Append(natural_int_key_
                       ? Value(id)
                       : current_schema_.column(i).type == DataType::kInt64
                             ? Value(id)
                             : Value(std::to_string(id)));
      } else {
        auto it = attr_values[attr_idx].find(id);
        if (it == attr_values[attr_idx].end()) {
          complete = false;
          break;
        }
        row.Append(it->second);
        ++attr_idx;
      }
    }
    if (complete) out.push_back(std::move(row));
  }
  return out;
}

uint64_t HTableSet::StorageBytes() const {
  uint64_t total = key_store_->StorageBytes();
  for (const auto& store : attr_stores_) total += store->StorageBytes();
  return total;
}

uint64_t HTableSet::TotalTuples() const {
  uint64_t total = key_store_->TotalTuples();
  for (const auto& store : attr_stores_) total += store->TotalTuples();
  return total;
}

}  // namespace archis::core
