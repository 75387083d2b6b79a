#include "archis/segment_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <queue>

#include "common/flight_recorder.h"
#include "common/instruments.h"
#include "common/log.h"
#include "minirel/executor.h"

namespace archis::core {

using minirel::Schema;
using minirel::Table;
using minirel::Tuple;
using minirel::Value;

namespace {

/// Identity of one version across segment copies: (id, tstart days).
/// Frozen segments are stored in this order, and multi-source scans emit
/// in it.
using VersionKey = std::pair<int64_t, int64_t>;

VersionKey VersionOf(const Tuple& row, size_t tstart_col) {
  return {row.at(0).AsInt(), row.at(tstart_col).AsDate().days()};
}

// A store record is its row's values encoded back to back
// (Tuple::Encode), and INT64 and DATE values encode as fixed 8-byte
// integers (Value::EncodeTo). So the id is a record's first 8 bytes and
// its interval the last 16: the update path reads and closes versions
// without decoding them.
constexpr size_t kFixedBytes = sizeof(int64_t);
const int64_t kForeverDays = Date::Forever().days();

int64_t FixedAt(std::string_view record, size_t pos) {
  int64_t v;
  std::memcpy(&v, record.data() + pos, kFixedBytes);
  return v;
}

int64_t TstartDays(std::string_view record) {
  return FixedAt(record, record.size() - 2 * kFixedBytes);
}

int64_t TendDays(std::string_view record) {
  return FixedAt(record, record.size() - kFixedBytes);
}

void AccumulateBlobStats(const compress::BlobReadStats& b,
                         StoreScanStats* stats) {
  if (stats == nullptr) return;
  stats->blocks_decompressed += b.blocks_decompressed;
  stats->blocks_pruned_by_time += b.blocks_pruned_by_time;
  stats->block_cache_hits += b.block_cache_hits;
  stats->block_cache_misses += b.block_cache_misses;
}

}  // namespace

Result<std::unique_ptr<SegmentedStore>> SegmentedStore::Create(
    minirel::Database* db, const std::string& name,
    const Schema& row_schema, SegmentOptions options, Date open_date,
    bool track_dirty) {
  if (row_schema.num_columns() < 3) {
    return Status::InvalidArgument(
        "row schema needs at least (id, tstart, tend)");
  }
  if (row_schema.column(0).type != minirel::DataType::kInt64) {
    return Status::InvalidArgument("column 0 must be the INT64 id");
  }
  const size_t ncols = row_schema.num_columns();
  if (row_schema.column(ncols - 2).type != minirel::DataType::kDate ||
      row_schema.column(ncols - 1).type != minirel::DataType::kDate) {
    return Status::InvalidArgument("tstart and tend must be DATE columns");
  }
  auto store = std::unique_ptr<SegmentedStore>(new SegmentedStore());
  store->name_ = name;
  store->row_schema_ = row_schema;
  store->options_ = options;
  store->db_ = db;
  store->live_start_ = open_date;
  store->track_dirty_ = track_dirty;
  store->tstart_col_ = ncols - 2;
  store->tend_col_ = ncols - 1;

  ARCHIS_ASSIGN_OR_RETURN(store->live_,
                          db->catalog().CreateTable(name + "__live",
                                                    row_schema));
  ARCHIS_RETURN_NOT_OK(store->live_->CreateIndex(
      "id", {row_schema.column(0).name}));

  if (options.enabled) {
    std::vector<minirel::Column> arch_cols;
    arch_cols.push_back({"segno", minirel::DataType::kInt64});
    for (const auto& c : row_schema.columns()) arch_cols.push_back(c);
    store->arch_schema_ = Schema(arch_cols);
    ARCHIS_ASSIGN_OR_RETURN(store->arch_,
                            db->catalog().CreateTable(name + "__arch",
                                                      store->arch_schema_));
    ARCHIS_RETURN_NOT_OK(store->arch_->CreateIndex(
        "segno_id", {"segno", row_schema.column(0).name}));
  }
  return store;
}

SegmentedStore::~SegmentedStore() {
  metrics::Get(metrics::kFrozenSegments)
      .Add(-static_cast<int64_t>(segments_.size()));
}

Result<std::string> SegmentedStore::EncodeVersion(
    int64_t id, const std::vector<Value>& values, Date tstart,
    Date tend) const {
  if (values.size() + 3 != row_schema_.num_columns()) {
    return Status::InvalidArgument("value arity mismatch for " + name_);
  }
  std::string record;
  Value(id).EncodeTo(&record);
  for (size_t i = 0; i < values.size(); ++i) {
    const minirel::Column& col = row_schema_.column(1 + i);
    if (values[i].type() != col.type) {
      return Status::TypeError("column '" + col.name + "' expects " +
                               minirel::DataTypeName(col.type) + ", got " +
                               minirel::DataTypeName(values[i].type()));
    }
    values[i].EncodeTo(&record);
  }
  Value(tstart).EncodeTo(&record);
  Value(tend).EncodeTo(&record);
  return record;
}

Status SegmentedStore::AddVersion(int64_t id, std::string_view record,
                                  const TimeInterval& interval) {
  ARCHIS_RETURN_NOT_OK(live_->InsertRecord(record, {Value(id)}).status());
  ++live_total_;
  if (interval.is_current()) ++live_current_;
  if (track_dirty_) dirty_.emplace(id, interval.tstart.days());
  return Status::OK();
}

Status SegmentedStore::InsertVersion(int64_t id,
                                     const std::vector<Value>& values,
                                     Date now) {
  ARCHIS_ASSIGN_OR_RETURN(std::string record,
                          EncodeVersion(id, values, now, Date::Forever()));
  return AddVersion(id, record, MakeInterval(now, Date::Forever()));
}

Status SegmentedStore::LoadVersion(int64_t id,
                                   const std::vector<Value>& values,
                                   const TimeInterval& interval) {
  if (!interval.valid()) {
    return Status::InvalidArgument("invalid interval for " + name_);
  }
  ARCHIS_ASSIGN_OR_RETURN(
      std::string record,
      EncodeVersion(id, values, interval.tstart, interval.tend));
  return AddVersion(id, record, interval);
}

Status SegmentedStore::LoadCheckpointRows(
    const std::vector<minirel::Tuple>& rows) {
  if (TotalTuples() != 0) {
    return Status::InvalidArgument("checkpoint restore into non-empty store " +
                                   name_);
  }
  for (const Tuple& row : rows) {
    if (row.size() != row_schema_.num_columns()) {
      return Status::Corruption("checkpoint row arity mismatch for " + name_);
    }
    std::vector<Value> values;
    for (size_t i = 1; i + 2 < row.size(); ++i) values.push_back(row.at(i));
    ARCHIS_ASSIGN_OR_RETURN(
        TimeInterval interval,
        MakeIntervalChecked(row.at(row.size() - 2).AsDate(),
                            row.at(row.size() - 1).AsDate()));
    ARCHIS_RETURN_NOT_OK(LoadVersion(row.at(0).AsInt(), values, interval));
  }
  return Status::OK();
}

Status SegmentedStore::UpsertCheckpointRow(const Tuple& row) {
  if (row.size() != row_schema_.num_columns()) {
    return Status::Corruption("checkpoint row arity mismatch for " + name_);
  }
  const int64_t id = row.at(0).AsInt();
  const Date tstart = row.at(tstart_col_).AsDate();
  ARCHIS_ASSIGN_OR_RETURN(
      TimeInterval interval,
      MakeIntervalChecked(tstart, row.at(tend_col_).AsDate()));
  // Restored rows all sit in the live segment (restore never freezes), so
  // the live id index sees every version of this id.
  std::optional<storage::RecordId> found_rid;
  std::optional<Tuple> found_row;
  const minirel::TableIndex* idx = live_->GetIndex("id");
  minirel::IndexKey key{Value(id)};
  ARCHIS_RETURN_NOT_OK(live_->IndexScan(
      *idx, key, key, [&](const storage::RecordId& r, const Tuple& t) {
        if (t.at(tstart_col_).AsDate() == tstart) {
          found_rid = r;
          found_row = t;
          return false;
        }
        return true;
      }));
  if (!found_rid.has_value()) {
    std::vector<Value> values;
    for (size_t i = 1; i + 2 < row.size(); ++i) values.push_back(row.at(i));
    return LoadVersion(id, values, interval);
  }
  const bool was_open = found_row->at(tend_col_).AsDate().IsForever();
  storage::RecordId rid = *found_rid;
  ARCHIS_RETURN_NOT_OK(live_->Update(&rid, *found_row, row));
  // Keep the open-version counter coherent.
  if (was_open && !interval.is_current()) {
    if (live_current_ > 0) --live_current_;
  } else if (!was_open && interval.is_current()) {
    ++live_current_;
  }
  if (track_dirty_) dirty_.emplace(id, tstart.days());
  return Status::OK();
}

std::set<std::pair<int64_t, int64_t>> SegmentedStore::TakeDirty() {
  std::set<std::pair<int64_t, int64_t>> out;
  out.swap(dirty_);
  return out;
}

void SegmentedStore::MergeDirty(
    const std::set<std::pair<int64_t, int64_t>>& dirty) {
  dirty_.insert(dirty.begin(), dirty.end());
}

Status SegmentedStore::FindOpenVersion(int64_t id, storage::RecordId* rid,
                                       std::string* record) const {
  const minirel::TableIndex& idx = *live_->GetIndex("id");
  const minirel::IndexKey key{Value(id)};
  // Updates append an id's versions in time order and never move a
  // closed one, so the open version is the id's last index entry: one
  // index descent and one record read, nothing decoded.
  if (const storage::RecordId* last = idx.tree.FindLast(key)) {
    ARCHIS_ASSIGN_OR_RETURN(*record, live_->heap().Read(*last));
    assert(record->size() >= 3 * kFixedBytes && FixedAt(*record, 0) == id);
    if (TendDays(*record) == kForeverDays) {
      *rid = *last;
      return Status::OK();
    }
  }
  // Bulk loads (H-document import, checkpoint restore) may leave a closed
  // version behind the open one; walk every version of the id.
  bool found = false;
  ARCHIS_RETURN_NOT_OK(live_->IndexScan(
      idx, key, key, [&](const storage::RecordId& r, const Tuple& t) {
        if (!t.at(tend_col_).AsDate().IsForever()) return true;
        *rid = r;
        found = true;
        return false;
      }));
  if (!found) {
    return Status::NotFound("no live version of id " + std::to_string(id) +
                            " in " + name_);
  }
  ARCHIS_ASSIGN_OR_RETURN(*record, live_->heap().Read(*rid));
  return Status::OK();
}

Status SegmentedStore::CloseOpenVersion(int64_t id, storage::RecordId rid,
                                        std::string* record, Date now) {
  // Close the interval the day before the change takes effect, matching the
  // paper's adjacent-interval samples (…02/19/1989][02/20/1989…).
  const Date tstart(TstartDays(*record));
  Date end = now.AddDays(-1);
  if (end < tstart) end = tstart;
  const int64_t end_days = end.days();
  std::memcpy(record->data() + record->size() - kFixedBytes, &end_days,
              kFixedBytes);
  // Same size and same id: the record is overwritten where it lies.
  ARCHIS_RETURN_NOT_OK(live_->UpdateRecord(&rid, *record, {Value(id)}));
  NoteClose(id, tstart, end);
  if (live_current_ > 0) --live_current_;
  if (track_dirty_) dirty_.emplace(id, tstart.days());
  return Status::OK();
}

Status SegmentedStore::CloseVersion(int64_t id, Date now) {
  storage::RecordId rid;
  std::string record;
  ARCHIS_RETURN_NOT_OK(FindOpenVersion(id, &rid, &record));
  ARCHIS_RETURN_NOT_OK(CloseOpenVersion(id, rid, &record, now));
  return FreezeIfNeeded(now);
}

Status SegmentedStore::ReplaceVersion(int64_t id,
                                      const std::vector<Value>& values,
                                      Date now) {
  ARCHIS_ASSIGN_OR_RETURN(std::string fresh,
                          EncodeVersion(id, values, now, Date::Forever()));
  storage::RecordId rid;
  std::string record;
  ARCHIS_RETURN_NOT_OK(FindOpenVersion(id, &rid, &record));
  if (TstartDays(record) == now.days()) {
    // The open version was born today; overwrite its value columns so the
    // store never holds two versions sharing (id, tstart). A frozen copy of
    // the old value may exist, but the live row is the newer source and
    // shadows it in every scan.
    ARCHIS_RETURN_NOT_OK(live_->UpdateRecord(&rid, fresh, {Value(id)}));
    if (track_dirty_) dirty_.emplace(id, now.days());
    return Status::OK();
  }
  ARCHIS_RETURN_NOT_OK(CloseOpenVersion(id, rid, &record, now));
  ARCHIS_RETURN_NOT_OK(FreezeIfNeeded(now));
  return AddVersion(id, fresh, MakeInterval(now, Date::Forever()));
}

void SegmentedStore::NoteClose(int64_t id, Date tstart, Date tend) {
  // Only a version that was open at the last freeze (it started no later
  // than the live segment) can have a frozen copy.
  if (segments_.empty() || live_start_ < tstart) return;
  MutexLock l(closes_mu_);
  closed_after_freeze_[{id, tstart.days()}] = tend;
}

const Tuple& SegmentedStore::CurrentCopy(const Tuple& row,
                                         Tuple* scratch) const {
  if (!row.at(tend_col_).AsDate().IsForever()) return row;
  Date tend;
  {
    MutexLock l(closes_mu_);
    auto it = closed_after_freeze_.find(VersionOf(row, tstart_col_));
    if (it == closed_after_freeze_.end()) return row;
    tend = it->second;
  }
  *scratch = row;
  scratch->at(tend_col_) = Value(tend);
  return *scratch;
}

double SegmentedStore::Usefulness() const {
  if (live_total_ == 0) return 1.0;
  return static_cast<double>(live_current_) /
         static_cast<double>(live_total_);
}

Status SegmentedStore::FreezeIfNeeded(Date now) {
  if (!options_.enabled) return Status::OK();
  if (live_total_ == 0 || Usefulness() >= options_.umin) return Status::OK();
  return Freeze(now);
}

Status SegmentedStore::Freeze(Date now) {
  if (!options_.enabled || live_total_ == 0) return Status::OK();
  // The clustering decision this freeze embodies: U at freeze time.
  const double usefulness_at_freeze = Usefulness();

  // 1. Copy every record of the live segment out, sorted by version
  //    (id, tstart). The copies outlive the live table dropped in step 4.
  struct Version {
    VersionKey key;
    size_t offset;  // into `bytes`
    size_t size;
  };
  std::string bytes;
  std::vector<Version> versions;
  versions.reserve(live_total_);
  bool truncated = false;
  live_->heap().Scan([&](const storage::RecordId&, std::string_view rec) {
    if (rec.size() < 3 * kFixedBytes) {
      truncated = true;
      return false;
    }
    versions.push_back({{FixedAt(rec, 0), TstartDays(rec)}, bytes.size(),
                        rec.size()});
    bytes.append(rec);
    return true;
  });
  if (truncated) return Status::Corruption("truncated live record in " + name_);
  std::sort(versions.begin(), versions.end(),
            [](const Version& a, const Version& b) { return a.key < b.key; });
  auto record = [&bytes](const Version& v) {
    return std::string_view(bytes).substr(v.offset, v.size);
  };

  // 2. Allocate the segment and record its interval.
  SegmentInfo info;
  info.segno = next_segno_++;
  info.interval = MakeInterval(live_start_, now);
  info.tuple_count = versions.size();
  info.compressed = options_.compress;
  // Rows are (id, tstart)-sorted, so the exact distinct-id count of the
  // segment is one transition scan (planner input, DESIGN.md §11).
  for (size_t i = 0; i < versions.size(); ++i) {
    if (i == 0 || versions[i].key.first != versions[i - 1].key.first) {
      ++info.distinct_ids;
    }
  }

  // 3. Materialise the frozen segment: BlockZIP blob or id-clustered rows,
  //    each arch row being segno followed by the live record.
  if (options_.compress) {
    std::vector<std::pair<int64_t, std::string>> records;
    std::vector<TimeInterval> times;
    records.reserve(versions.size());
    times.reserve(versions.size());
    for (const Version& v : versions) {
      records.emplace_back(v.key.first, std::string(record(v)));
      times.emplace_back(Date(v.key.second), Date(TendDays(record(v))));
    }
    ARCHIS_ASSIGN_OR_RETURN(
        std::unique_ptr<CompressedSegment> seg,
        CompressedSegment::Build(row_schema_, records, times,
                                 options_.block_size,
                                 options_.block_cache_bytes));
    info.blocks = seg->block_count();
    compressed_.push_back(std::move(seg));
  } else {
    compressed_.push_back(nullptr);
    std::string arch_record;
    for (const Version& v : versions) {
      arch_record.clear();
      Value(info.segno).EncodeTo(&arch_record);
      arch_record.append(record(v));
      ARCHIS_RETURN_NOT_OK(
          arch_->AppendRecord(arch_record,
                              {Value(info.segno), Value(v.key.first)})
              .status());
    }
  }
  segments_.push_back(info);

  // 4. New live segment with only the live tuples; drop the old one.
  ARCHIS_RETURN_NOT_OK(db_->catalog().DropTable(name_ + "__live"));
  ARCHIS_ASSIGN_OR_RETURN(live_, db_->catalog().CreateTable(name_ + "__live",
                                                            row_schema_));
  ARCHIS_RETURN_NOT_OK(live_->CreateIndex("id",
                                          {row_schema_.column(0).name}));
  uint64_t carried = 0;
  for (const Version& v : versions) {
    if (TendDays(record(v)) != kForeverDays) continue;
    ARCHIS_RETURN_NOT_OK(
        live_->AppendRecord(record(v), {Value(v.key.first)}).status());
    ++carried;
  }
  live_total_ = carried;
  live_current_ = carried;
  live_start_ = now;
  metrics::Get(metrics::kSegmentFreezes).Inc();
  metrics::Get(metrics::kSegmentFreezeUsefulness).Observe(usefulness_at_freeze);
  metrics::Get(metrics::kFrozenSegments).Add(1);
  metrics::Get(metrics::kSegmentFrozenTuples).Inc(info.tuple_count);
  fr::Record(fr::EventType::kSegmentFreeze, info.segno, info.tuple_count, 0,
             name_);
  logging::Debug("segment.freeze")
      .Kv("store", name_)
      .Kv("segno", info.segno)
      .Kv("usefulness", usefulness_at_freeze)
      .Kv("tuples", info.tuple_count)
      .Kv("carried_live", carried)
      .Kv("compressed", options_.compress);
  return Status::OK();
}

std::vector<int64_t> SegmentedStore::CoveringSegments(
    const TimeInterval& iv) const {
  std::vector<int64_t> out;
  for (const SegmentInfo& seg : segments_) {
    if (seg.interval.Overlaps(iv)) out.push_back(seg.segno);
  }
  return out;
}

Status SegmentedStore::ScanFrozenSegment(
    int64_t segno, const std::optional<TimeInterval>& window,
    std::optional<int64_t> id_filter,
    const std::function<bool(const Tuple&)>& fn,
    StoreScanStats* stats) const {
  if (stats != nullptr) ++stats->segments_scanned;
  metrics::Get(metrics::kSegmentScans).Inc();
  size_t idx = static_cast<size_t>(segno - 1);
  if (idx < compressed_.size() && compressed_[idx] != nullptr) {
    compress::BlobReadStats bstats;
    Status st = compressed_[idx]->Scan(id_filter, window, fn, &bstats);
    AccumulateBlobStats(bstats, stats);
    return st;
  }
  if (arch_ != nullptr) {
    const minirel::TableIndex* idx_si = arch_->GetIndex("segno_id");
    minirel::IndexKey lo{Value(segno)};
    minirel::IndexKey hi{Value(segno)};
    if (id_filter) {
      lo.push_back(Value(*id_filter));
      hi.push_back(Value(*id_filter));
    } else {
      lo.push_back(Value(INT64_MIN));
      hi.push_back(Value(INT64_MAX));
    }
    ARCHIS_RETURN_NOT_OK(arch_->IndexScan(
        *idx_si, lo, hi,
        [&](const storage::RecordId&, const Tuple& arch_row) {
          // Strip the segno column.
          Tuple row(std::vector<Value>(arch_row.values().begin() + 1,
                                       arch_row.values().end()));
          return fn(row);
        }));
  }
  return Status::OK();
}

Status SegmentedStore::ScanLive(std::optional<int64_t> id_filter,
                                const std::function<bool(const Tuple&)>& fn,
                                StoreScanStats* stats) const {
  if (stats != nullptr) ++stats->segments_scanned;
  metrics::Get(metrics::kSegmentScans).Inc();
  auto visit = [&](const storage::RecordId&, const Tuple& row) {
    return fn(row);
  };
  if (id_filter) {
    const minirel::TableIndex* idx = live_->GetIndex("id");
    minirel::IndexKey key{Value(*id_filter)};
    return live_->IndexScan(*idx, key, key, visit);
  }
  return live_->Scan(visit);
}

Status SegmentedStore::ScanSegments(
    const std::vector<int64_t>& segnos, bool include_live,
    const std::optional<TimeInterval>& filter,
    std::optional<int64_t> id_filter,
    const std::function<bool(const Tuple&)>& fn,
    StoreScanStats* stats) const {
  auto passes = [&](const Tuple& row) {
    return !filter || MakeInterval(row.at(tstart_col_).AsDate(),
                                   row.at(tend_col_).AsDate())
                          .Overlaps(*filter);
  };

  // One source (the snapshot fast path — exactly one covering segment,
  // Section 6.1 — or a live-only scan) holds one copy per version, so rows
  // stream straight to `fn` in storage order.
  if (segnos.size() + (include_live ? 1 : 0) <= 1) {
    auto emit = [&](const Tuple& row) {
      if (stats != nullptr) ++stats->tuples_scanned;
      if (id_filter && row.at(0).AsInt() != *id_filter) return true;
      return !passes(row) || fn(row);
    };
    if (include_live) return ScanLive(id_filter, emit, stats);
    if (segnos.empty()) return Status::OK();
    Tuple scratch;
    return ScanFrozenSegment(
        segnos.front(), filter, id_filter,
        [&](const Tuple& row) { return emit(CurrentCopy(row, &scratch)); },
        stats);
  }

  // Several sources: collect one run per source, newest first (the live
  // segment, then frozen segments by descending segno). Frozen runs arrive
  // in (id, tstart) order because Freeze() stores them sorted; the live
  // run is sorted here. The time filter cannot apply yet: an older copy of
  // a version may still be open where the newest copy is already closed.
  std::vector<std::vector<Tuple>> runs;
  runs.reserve(segnos.size() + 1);
  auto collect = [&](std::vector<Tuple>* run) {
    return [&, run](const Tuple& row) {
      if (stats != nullptr) ++stats->tuples_scanned;
      if (!id_filter || row.at(0).AsInt() == *id_filter) run->push_back(row);
      return true;
    };
  };
  if (include_live) {
    std::vector<Tuple>& live = runs.emplace_back();
    ARCHIS_RETURN_NOT_OK(ScanLive(id_filter, collect(&live), stats));
    std::sort(live.begin(), live.end(), [&](const Tuple& a, const Tuple& b) {
      return VersionOf(a, tstart_col_) < VersionOf(b, tstart_col_);
    });
  }
  for (auto it = segnos.rbegin(); it != segnos.rend(); ++it) {
    std::vector<Tuple>& run = runs.emplace_back();
    ARCHIS_RETURN_NOT_OK(
        ScanFrozenSegment(*it, filter, id_filter, collect(&run), stats));
  }

  // K-way merge by (id, tstart). On a tie the run with the smaller index —
  // the newer source — surfaces first; its copy is the one filtered and
  // emitted (corrected if it is a frozen copy of a since-closed version),
  // and the older copies of that version are skipped.
  struct Head {
    size_t run;
    size_t pos;
    VersionKey key;
  };
  auto after = [](const Head& a, const Head& b) {
    return a.key != b.key ? a.key > b.key : a.run > b.run;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heads(after);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) {
      heads.push({r, 0, VersionOf(runs[r].front(), tstart_col_)});
    }
  }
  std::optional<VersionKey> last;
  Tuple scratch;
  while (!heads.empty()) {
    Head h = heads.top();
    heads.pop();
    const Tuple& stored = runs[h.run][h.pos];
    if (h.key != last) {
      last = h.key;
      const Tuple& row = include_live && h.run == 0
                             ? stored
                             : CurrentCopy(stored, &scratch);
      if (passes(row) && !fn(row)) return Status::OK();
    }
    if (++h.pos < runs[h.run].size()) {
      h.key = VersionOf(runs[h.run][h.pos], tstart_col_);
      heads.push(h);
    }
  }
  return Status::OK();
}

Status SegmentedStore::ScanInterval(
    const TimeInterval& query, const std::function<bool(const Tuple&)>& fn,
    StoreScanStats* stats) const {
  if (!options_.enabled) {
    return ScanSegments({}, /*include_live=*/true, query, std::nullopt, fn,
                        stats);
  }
  std::vector<int64_t> segnos = CoveringSegments(query);
  if (stats != nullptr) stats->segments_considered = segments_.size() + 1;
  bool live_overlaps = query.tend >= live_start_;
  return ScanSegments(segnos, live_overlaps, query, std::nullopt, fn, stats);
}

Status SegmentedStore::ScanSnapshot(
    Date t, const std::function<bool(const Tuple&)>& fn,
    StoreScanStats* stats) const {
  TimeInterval point(t, t);
  if (!options_.enabled) {
    return ScanSegments({}, true, point, std::nullopt, fn, stats);
  }
  if (stats != nullptr) stats->segments_considered = segments_.size() + 1;
  if (t >= live_start_) {
    // Served entirely by the live segment.
    return ScanSegments({}, true, point, std::nullopt, fn, stats);
  }
  // One frozen segment covers the timestamp; the newest covering segment
  // holds the freshest copies.
  std::vector<int64_t> covering = CoveringSegments(point);
  if (covering.empty()) return Status::OK();
  return ScanSegments({covering.back()}, false, point, std::nullopt, fn,
                      stats);
}

Status SegmentedStore::ScanHistory(
    const std::function<bool(const Tuple&)>& fn,
    StoreScanStats* stats) const {
  std::vector<int64_t> all;
  for (const SegmentInfo& seg : segments_) all.push_back(seg.segno);
  if (stats != nullptr) stats->segments_considered = segments_.size() + 1;
  return ScanSegments(all, true, std::nullopt, std::nullopt, fn, stats);
}

Status SegmentedStore::ScanId(int64_t id,
                              const std::function<bool(const Tuple&)>& fn,
                              StoreScanStats* stats) const {
  std::vector<int64_t> all;
  for (const SegmentInfo& seg : segments_) all.push_back(seg.segno);
  if (stats != nullptr) stats->segments_considered = segments_.size() + 1;
  return ScanSegments(all, true, std::nullopt, id, fn, stats);
}

uint64_t SegmentedStore::StorageBytes() const {
  uint64_t total = live_->DataBytes() + live_->IndexBytes();
  if (arch_ != nullptr) {
    total += arch_->DataBytes() + arch_->IndexBytes();
  }
  for (const auto& seg : compressed_) {
    if (seg != nullptr) total += seg->CompressedBytes();
  }
  return total;
}

uint64_t SegmentedStore::BlocksOverlapping(
    size_t index, const std::optional<TimeInterval>& window) const {
  if (index >= compressed_.size() || compressed_[index] == nullptr) return 0;
  return compressed_[index]->BlocksOverlapping(window);
}

minirel::TableStats SegmentedStore::LiveTableStats() const {
  return live_->Stats();
}

uint64_t SegmentedStore::TotalTuples() const {
  uint64_t total = live_total_;
  for (const SegmentInfo& seg : segments_) total += seg.tuple_count;
  return total;
}

uint64_t SegmentedStore::LogicalTuples() const {
  uint64_t n = 0;
  // Best-effort introspection counter: a failed scan just reports the
  // tuples seen so far, which is the most this size probe can promise.
  IgnoreStatus(ScanHistory([&](const Tuple&) {
    ++n;
    return true;
  }));
  return n;
}

}  // namespace archis::core
