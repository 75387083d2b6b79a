// The Archiver routes captured changes into the per-relation H-tables and
// maintains the global `relations(relationname, tstart, tend)` table.
#ifndef ARCHIS_ARCHIS_ARCHIVER_H_
#define ARCHIS_ARCHIS_ARCHIVER_H_

#include <map>
#include <memory>
#include <string>

#include "archis/change_capture.h"
#include "archis/htable.h"

namespace archis::core {

/// Owns every relation's HTableSet plus the relations history table.
class Archiver {
 public:
  explicit Archiver(minirel::Database* hdb) : hdb_(hdb) {}

  /// Registers a relation for archival (creates its H-tables) and records
  /// it in the global relations table.
  Status RegisterRelation(const std::string& name,
                          const minirel::Schema& schema,
                          const std::vector<std::string>& key_columns,
                          const SegmentOptions& options, Date open_date);

  /// Closes a relation's interval in the relations table (table dropped).
  Status UnregisterRelation(const std::string& name, Date when);

  /// Applies one captured change to the owning H-tables.
  Status Apply(const ChangeRecord& change);

  /// The H-tables of `name`; NotFound when unregistered.
  Result<HTableSet*> htables(const std::string& name) const;

  /// Relation history entries (the root elements of H-documents).
  struct RelationEntry {
    std::string name;
    TimeInterval interval;
  };
  const std::vector<RelationEntry>& relations() const { return relations_; }

  /// Freezes every store of every relation.
  Status FreezeAll(Date now);

  /// Total H-table storage bytes.
  uint64_t StorageBytes() const;

 private:
  minirel::Database* hdb_;
  std::map<std::string, std::unique_ptr<HTableSet>> sets_;
  std::vector<RelationEntry> relations_;
};

}  // namespace archis::core

#endif  // ARCHIS_ARCHIS_ARCHIVER_H_
