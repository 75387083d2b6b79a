// Catalog: name -> Table mapping for one database.
#ifndef ARCHIS_MINIREL_CATALOG_H_
#define ARCHIS_MINIREL_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minirel/table.h"

namespace archis::minirel {

/// Owns the tables of a database and resolves them by name.
class Catalog {
 public:
  explicit Catalog(storage::PageManager* pm) : pm_(pm) {}

  /// Creates an empty table; AlreadyExists if the name is taken.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Drops a table and returns its pages to the PageManager for reuse.
  Status DropTable(const std::string& name);

  /// The table named `name`, or NotFound.
  Result<Table*> GetTable(const std::string& name) const;

  /// Whether `name` exists.
  bool HasTable(const std::string& name) const;

  /// Names of all tables, sorted.
  std::vector<std::string> TableNames() const;

  /// Metadata statistics for the table named `name`, or NotFound. The
  /// statistics-catalog entry point for cost-based planning.
  Result<TableStats> StatsFor(const std::string& name) const;

 private:
  storage::PageManager* pm_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace archis::minirel

#endif  // ARCHIS_MINIREL_CATALOG_H_
