#include "archis/archiver.h"

namespace archis::core {

Status Archiver::RegisterRelation(const std::string& name,
                                  const minirel::Schema& schema,
                                  const std::vector<std::string>& key_columns,
                                  const SegmentOptions& options,
                                  Date open_date) {
  if (sets_.count(name) != 0) {
    return Status::AlreadyExists("relation '" + name + "' already archived");
  }
  ARCHIS_ASSIGN_OR_RETURN(
      std::unique_ptr<HTableSet> set,
      HTableSet::Create(hdb_, name, schema, key_columns, options, open_date));
  sets_[name] = std::move(set);
  relations_.push_back(
      {name, MakeInterval(open_date, Date::Forever())});
  return Status::OK();
}

Status Archiver::UnregisterRelation(const std::string& name, Date when) {
  for (RelationEntry& entry : relations_) {
    if (entry.name == name && entry.interval.is_current()) {
      entry.interval.tend = when;
      return Status::OK();
    }
  }
  return Status::NotFound("relation '" + name + "' not open");
}

Status Archiver::Apply(const ChangeRecord& change) {
  ARCHIS_ASSIGN_OR_RETURN(HTableSet* set, htables(change.relation));
  switch (change.kind) {
    case ChangeKind::kInsert:
      return set->ArchiveInsert(change.new_row, change.when);
    case ChangeKind::kUpdate:
      return set->ArchiveUpdate(change.old_row, change.new_row, change.when);
    case ChangeKind::kDelete:
      return set->ArchiveDelete(change.old_row, change.when);
  }
  return Status::Internal("bad change kind");
}

Result<HTableSet*> Archiver::htables(const std::string& name) const {
  auto it = sets_.find(name);
  if (it == sets_.end()) {
    return Status::NotFound("relation '" + name + "' is not archived");
  }
  return it->second.get();
}

Status Archiver::FreezeAll(Date now) {
  for (auto& [name, set] : sets_) {
    ARCHIS_RETURN_NOT_OK(set->FreezeAll(now));
  }
  return Status::OK();
}

uint64_t Archiver::StorageBytes() const {
  uint64_t total = 0;
  for (const auto& [name, set] : sets_) total += set->StorageBytes();
  return total;
}

}  // namespace archis::core
