// Tables: a schema, a heap file, and any number of B+-tree indexes.
#ifndef ARCHIS_MINIREL_TABLE_H_
#define ARCHIS_MINIREL_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minirel/predicate.h"
#include "storage/bptree.h"
#include "storage/heap_file.h"

namespace archis::minirel {

/// Composite index key: values of the indexed columns, compared
/// lexicographically.
using IndexKey = std::vector<Value>;

/// Planner-facing statistics of one table, derived from heap and index
/// metadata alone — cheap enough to consult on every query plan.
struct TableStats {
  uint64_t pages = 0;       ///< allocated heap pages
  uint64_t data_bytes = 0;  ///< heap bytes (pages * page size)
  uint64_t index_bytes = 0;
};

/// A secondary index over a subset of a table's columns.
struct TableIndex {
  std::string name;
  std::vector<size_t> columns;  // indexed column positions, in key order
  storage::BPlusTree<IndexKey, storage::RecordId> tree;
};

/// A stored relation.
class Table {
 public:
  Table(std::string name, Schema schema, storage::PageManager* pm)
      : name_(std::move(name)), schema_(std::move(schema)), heap_(pm) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Inserts `t`, maintaining all indexes. Returns the record id.
  Result<storage::RecordId> Insert(const Tuple& t);

  /// Reads the tuple at `rid`.
  Result<Tuple> Read(const storage::RecordId& rid) const;

  /// Deletes the tuple at `rid`, maintaining indexes.
  Status Delete(const storage::RecordId& rid);

  /// Replaces the tuple at `rid` with `t`; the tuple may move, in which
  /// case the new record id is written back through `rid`.
  Status Update(storage::RecordId* rid, const Tuple& t);

  /// Update for a caller that already holds the stored tuple `old_row`
  /// (it must be the row at `rid`): skips re-reading it for the old index
  /// keys.
  Status Update(storage::RecordId* rid, const Tuple& old_row,
                const Tuple& new_row);

  // -- Encoded-record access ---------------------------------------------
  // For tables with exactly one index, whose callers build records in
  // Tuple::Encode's format themselves. `key` is the record's key in that
  // index; the caller guarantees both match the bytes.

  /// Inserts an encoded record.
  Result<storage::RecordId> InsertRecord(std::string_view record,
                                         const IndexKey& key);

  /// InsertRecord for a key >= every key already indexed (sorted bulk
  /// loads): the index append skips the search.
  Result<storage::RecordId> AppendRecord(std::string_view record,
                                         const IndexKey& key);

  /// Replaces the record at `rid` with `record`, whose index key `key` is
  /// unchanged; a record that no longer fits moves, and `rid` follows it.
  /// A same-size record is overwritten in place.
  Status UpdateRecord(storage::RecordId* rid, std::string_view record,
                      const IndexKey& key);

  /// Creates a B+-tree index named `index_name` over `column_names`,
  /// back-filling from existing rows.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& column_names);

  /// The index named `index_name`, or nullptr.
  const TableIndex* GetIndex(const std::string& index_name) const;

  /// The first index whose leading column is `column`, or nullptr.
  const TableIndex* FindIndexOn(const std::string& column) const;

  /// Calls `fn(rid, tuple)` for every live row; stop early on false.
  /// A row that fails to decode aborts the scan with Corruption — silently
  /// skipping it would make data loss invisible.
  Status Scan(const std::function<bool(const storage::RecordId&,
                                       const Tuple&)>& fn) const;

  /// Rows matching `pred` (full scan).
  Result<std::vector<Tuple>> Select(const Predicate& pred) const;

  /// Calls `fn` for rows whose index key is in [lo, hi] on `index`.
  /// An index entry whose row cannot be read aborts with that error.
  Status IndexScan(const TableIndex& index, const IndexKey& lo,
                   const IndexKey& hi,
                   const std::function<bool(const storage::RecordId&,
                                            const Tuple&)>& fn) const;

  /// Live row count (scan).
  uint64_t RowCount() const { return heap_.CountLive(); }

  /// Data bytes (heap pages only).
  uint64_t DataBytes() const { return heap_.SizeBytes(); }

  /// Approximate index bytes across all indexes.
  uint64_t IndexBytes() const;

  /// Heap/index metadata statistics (no row scan).
  TableStats Stats() const {
    return {heap_.pages().size(), heap_.SizeBytes(), IndexBytes()};
  }

  storage::HeapFile& heap() { return heap_; }
  const storage::HeapFile& heap() const { return heap_; }

 private:
  IndexKey KeyFor(const TableIndex& index, const Tuple& t) const;
  /// The single index of an encoded-record table.
  Result<TableIndex*> SoleIndex();

  std::string name_;
  Schema schema_;
  storage::HeapFile heap_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;
};

}  // namespace archis::minirel

#endif  // ARCHIS_MINIREL_TABLE_H_
