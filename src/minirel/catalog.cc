#include "minirel/catalog.h"

namespace archis::minirel {

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  auto table = std::make_unique<Table>(name, std::move(schema), pm_);
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  it->second->heap().Clear();
  tables_.erase(it);
  return Status::OK();
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) != 0;
}

Result<TableStats> Catalog::StatsFor(const std::string& name) const {
  ARCHIS_ASSIGN_OR_RETURN(Table * table, GetTable(name));
  return table->Stats();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace archis::minirel
