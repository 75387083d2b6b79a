#include "minirel/table.h"

namespace archis::minirel {

Result<storage::RecordId> Table::Insert(const Tuple& t) {
  ARCHIS_ASSIGN_OR_RETURN(std::string bytes, t.Encode(schema_));
  ARCHIS_ASSIGN_OR_RETURN(storage::RecordId rid, heap_.Append(bytes));
  for (auto& idx : indexes_) {
    idx->tree.Insert(KeyFor(*idx, t), rid);
  }
  return rid;
}

Result<Tuple> Table::Read(const storage::RecordId& rid) const {
  ARCHIS_ASSIGN_OR_RETURN(std::string bytes, heap_.Read(rid));
  return Tuple::Decode(schema_, bytes);
}

Status Table::Delete(const storage::RecordId& rid) {
  ARCHIS_ASSIGN_OR_RETURN(Tuple t, Read(rid));
  ARCHIS_RETURN_NOT_OK(heap_.Delete(rid));
  for (auto& idx : indexes_) {
    idx->tree.Erase(KeyFor(*idx, t), rid);
  }
  return Status::OK();
}

Status Table::Update(storage::RecordId* rid, const Tuple& t) {
  ARCHIS_ASSIGN_OR_RETURN(Tuple old, Read(*rid));
  return Update(rid, old, t);
}

Status Table::Update(storage::RecordId* rid, const Tuple& old_row,
                     const Tuple& new_row) {
  ARCHIS_ASSIGN_OR_RETURN(std::string bytes, new_row.Encode(schema_));
  storage::RecordId old_rid = *rid;
  ARCHIS_RETURN_NOT_OK(heap_.Update(rid, bytes));
  for (auto& idx : indexes_) {
    IndexKey old_key = KeyFor(*idx, old_row);
    IndexKey new_key = KeyFor(*idx, new_row);
    if (old_key != new_key || old_rid != *rid) {
      idx->tree.Erase(old_key, old_rid);
      idx->tree.Insert(new_key, *rid);
    }
  }
  return Status::OK();
}

Result<TableIndex*> Table::SoleIndex() {
  if (indexes_.size() != 1) {
    return Status::InvalidArgument("encoded-record access to table '" +
                                   name_ + "' needs exactly one index");
  }
  return indexes_.front().get();
}

Result<storage::RecordId> Table::InsertRecord(std::string_view record,
                                              const IndexKey& key) {
  ARCHIS_ASSIGN_OR_RETURN(TableIndex * idx, SoleIndex());
  ARCHIS_ASSIGN_OR_RETURN(storage::RecordId rid, heap_.Append(record));
  idx->tree.Insert(key, rid);
  return rid;
}

Result<storage::RecordId> Table::AppendRecord(std::string_view record,
                                              const IndexKey& key) {
  ARCHIS_ASSIGN_OR_RETURN(TableIndex * idx, SoleIndex());
  ARCHIS_ASSIGN_OR_RETURN(storage::RecordId rid, heap_.Append(record));
  idx->tree.Append(key, rid);
  return rid;
}

Status Table::UpdateRecord(storage::RecordId* rid, std::string_view record,
                           const IndexKey& key) {
  ARCHIS_ASSIGN_OR_RETURN(TableIndex * idx, SoleIndex());
  const storage::RecordId old_rid = *rid;
  ARCHIS_RETURN_NOT_OK(heap_.Update(rid, record));
  if (*rid != old_rid) {
    idx->tree.Erase(key, old_rid);
    idx->tree.Insert(key, *rid);
  }
  return Status::OK();
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& column_names) {
  if (GetIndex(index_name) != nullptr) {
    return Status::AlreadyExists("index '" + index_name + "'");
  }
  auto idx = std::make_unique<TableIndex>();
  idx->name = index_name;
  for (const std::string& col : column_names) {
    ARCHIS_ASSIGN_OR_RETURN(size_t pos, schema_.ColumnIndex(col));
    idx->columns.push_back(pos);
  }
  // Back-fill; a corrupt row fails index creation instead of silently
  // leaving the index incomplete.
  ARCHIS_RETURN_NOT_OK(Scan([&](const storage::RecordId& rid, const Tuple& t) {
    idx->tree.Insert(KeyFor(*idx, t), rid);
    return true;
  }));
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

const TableIndex* Table::GetIndex(const std::string& index_name) const {
  for (const auto& idx : indexes_) {
    if (idx->name == index_name) return idx.get();
  }
  return nullptr;
}

const TableIndex* Table::FindIndexOn(const std::string& column) const {
  auto pos = schema_.ColumnIndex(column);
  if (!pos.ok()) return nullptr;
  for (const auto& idx : indexes_) {
    if (!idx->columns.empty() && idx->columns[0] == *pos) return idx.get();
  }
  return nullptr;
}

Status Table::Scan(const std::function<bool(const storage::RecordId&,
                                            const Tuple&)>& fn) const {
  Status failure = Status::OK();
  heap_.Scan([&](const storage::RecordId& rid, std::string_view bytes) {
    auto t = Tuple::Decode(schema_, bytes);
    if (!t.ok()) {
      failure = t.status();
      return false;  // abort: a vanishing row is silent data loss
    }
    return fn(rid, *t);
  });
  return failure;
}

Result<std::vector<Tuple>> Table::Select(const Predicate& pred) const {
  std::vector<Tuple> out;
  ARCHIS_RETURN_NOT_OK(Scan([&](const storage::RecordId&, const Tuple& t) {
    if (pred.Matches(t)) out.push_back(t);
    return true;
  }));
  return out;
}

Status Table::IndexScan(const TableIndex& index, const IndexKey& lo,
                        const IndexKey& hi,
                        const std::function<bool(const storage::RecordId&,
                                                 const Tuple&)>& fn) const {
  Status failure = Status::OK();
  index.tree.ScanRange(lo, hi,
                       [&](const IndexKey&, const storage::RecordId& rid) {
    auto t = Read(rid);
    if (!t.ok()) {
      failure = t.status();
      return false;
    }
    return fn(rid, *t);
  });
  return failure;
}

uint64_t Table::IndexBytes() const {
  uint64_t total = 0;
  for (const auto& idx : indexes_) {
    // Keys are vectors of values; approximate each entry at 24 bytes of key
    // payload plus tree overhead.
    total += idx->tree.size() * 32;
  }
  return total;
}

IndexKey Table::KeyFor(const TableIndex& index, const Tuple& t) const {
  IndexKey key;
  key.reserve(index.columns.size());
  for (size_t col : index.columns) key.push_back(t.at(col));
  return key;
}

}  // namespace archis::minirel
