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

// A store record is its row's values encoded back to back
// (Tuple::Encode), and INT64 and DATE values encode as fixed 8-byte
// integers (Value::EncodeTo). So the id is a record's first 8 bytes and
// its interval the last 16: the update path reads and closes versions,
// and scans merge and filter them, without decoding them.
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
    const Schema& row_schema, SegmentOptions options, Date open_date) {
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
  return Status::OK();
}

Status SegmentedStore::InsertVersion(int64_t id,
                                     const std::vector<Value>& values,
                                     Date now) {
  ARCHIS_ASSIGN_OR_RETURN(std::string record,
                          EncodeVersion(id, values, now, Date::Forever()));
  const minirel::IndexKey key{Value(id)};
  if (const storage::RecordId* last = live_->GetIndex("id")->tree.FindLast(key)) {
    ARCHIS_ASSIGN_OR_RETURN(std::string prior, live_->heap().Read(*last));
    if (TstartDays(prior) == now.days() && TendDays(prior) != kForeverDays) {
      // Born and closed today: reopen it with the new values, so the store
      // never holds two versions sharing (id, tstart).
      storage::RecordId rid = *last;
      ARCHIS_RETURN_NOT_OK(live_->UpdateRecord(&rid, record, {Value(id)}));
      ++live_current_;
      MutexLock l(closes_mu_);
      closed_after_freeze_.erase({id, now.days()});
      return Status::OK();
    }
  }
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
    return live_->UpdateRecord(&rid, fresh, {Value(id)});
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
    frozen_.emplace_back().blob = std::move(seg);
  } else {
    FrozenRows& rows = frozen_.emplace_back();
    std::string arch_record;
    for (const Version& v : versions) {
      arch_record.clear();
      Value(info.segno).EncodeTo(&arch_record);
      arch_record.append(record(v));
      ARCHIS_ASSIGN_OR_RETURN(
          storage::RecordId rid,
          arch_->AppendRecord(arch_record,
                              {Value(info.segno), Value(v.key.first)}));
      if (rows.pages.empty()) rows.first_slot = rid.slot;
      if (rows.pages.empty() || rows.pages.back() != rid.page_id) {
        rows.pages.push_back(rid.page_id);
      }
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

/// Record copies a scan must not view in place: live records (a freeze
/// frees their pages) and records of inflated blocks (the cache may evict
/// a block). Chunks never move, so every view handed out stays valid for
/// the scan.
class SegmentedStore::Arena {
 public:
  std::string_view Copy(std::string_view bytes) {
    if (chunks_.empty() || capacity_ - used_ < bytes.size()) {
      capacity_ = std::max(kChunkBytes, bytes.size());
      chunks_.emplace_back(new char[capacity_]);
      used_ = 0;
    }
    char* at = chunks_.back().get() + used_;
    std::memcpy(at, bytes.data(), bytes.size());
    used_ += bytes.size();
    return {at, bytes.size()};
  }

 private:
  static constexpr size_t kChunkBytes = 16 << 10;
  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

/// One merge source: its records in (id, tstart) order — a live run read
/// alone keeps storage order — buffered whole or, for a page run, one
/// page at a time.
struct SegmentedStore::Run {
  std::vector<std::string_view> records;
  size_t pos = 0;
  /// Frozen copies may need the late-close correction.
  bool frozen = false;
  /// Page run: the pages not buffered yet and the rows left on them.
  const storage::PageId* next_page = nullptr;
  const storage::PageId* end_page = nullptr;
  uint16_t first_slot = 0;
  uint64_t left = 0;
};

namespace {

void CountSource(StoreScanStats* stats) {
  if (stats != nullptr) ++stats->segments_scanned;
  metrics::Get(metrics::kSegmentScans).Inc();
}

/// Drops the first `prefix` bytes of each record (an arch row's segno)
/// and rejects records too short to hold an id, tstart and tend, which
/// every key and filter read relies on.
Status TrimRecords(std::vector<std::string_view>* records, size_t prefix,
                   const std::string& store) {
  for (std::string_view& rec : *records) {
    if (rec.size() < prefix + 3 * kFixedBytes) {
      return Status::Corruption("truncated record in " + store);
    }
    rec.remove_prefix(prefix);
  }
  return Status::OK();
}

VersionKey KeyOf(std::string_view record) {
  return {FixedAt(record, 0), TstartDays(record)};
}

}  // namespace

Status SegmentedStore::OpenLiveRun(std::optional<int64_t> id_filter,
                                   Arena* arena, Run* run,
                                   StoreScanStats* stats) const {
  CountSource(stats);
  if (id_filter) {
    const minirel::IndexKey key{Value(*id_filter)};
    Status failure = Status::OK();
    live_->GetIndex("id")->tree.ScanRange(
        key, key, [&](const minirel::IndexKey&, const storage::RecordId& rid) {
          Result<std::string_view> rec = live_->heap().View(rid);
          if (!rec.ok()) {
            failure = rec.status();
            return false;
          }
          run->records.push_back(arena->Copy(*rec));
          return true;
        });
    ARCHIS_RETURN_NOT_OK(failure);
  } else {
    run->records.reserve(live_total_);
    live_->heap().Scan([&](const storage::RecordId&, std::string_view rec) {
      run->records.push_back(arena->Copy(rec));
      return true;
    });
  }
  if (stats != nullptr) stats->tuples_scanned += run->records.size();
  return TrimRecords(&run->records, 0, name_);
}

Status SegmentedStore::OpenFrozenRun(int64_t segno,
                                     const std::optional<TimeInterval>& window,
                                     std::optional<int64_t> id_filter,
                                     Arena* arena, Run* run,
                                     StoreScanStats* stats) const {
  CountSource(stats);
  run->frozen = true;
  const FrozenRows& rows = frozen_[static_cast<size_t>(segno - 1)];
  if (rows.blob != nullptr) {
    compress::BlobReadStats bstats;
    Status st = rows.blob->ScanRecords(
        id_filter, window,
        [&](std::string_view rec) {
          run->records.push_back(arena->Copy(rec));
          return true;
        },
        &bstats);
    AccumulateBlobStats(bstats, stats);
    ARCHIS_RETURN_NOT_OK(st);
  } else if (id_filter) {
    // One object's rows: probe the (segno, id) index and view each record
    // in place.
    const minirel::IndexKey key{Value(segno), Value(*id_filter)};
    Status failure = Status::OK();
    arch_->GetIndex("segno_id")->tree.ScanRange(
        key, key, [&](const minirel::IndexKey&, const storage::RecordId& rid) {
          Result<std::string_view> rec = arch_->heap().View(rid);
          if (!rec.ok()) {
            failure = rec.status();
            return false;
          }
          run->records.push_back(*rec);
          return true;
        });
    ARCHIS_RETURN_NOT_OK(failure);
  } else {
    run->next_page = rows.pages.data();
    run->end_page = rows.pages.data() + rows.pages.size();
    run->first_slot = rows.first_slot;
    run->left = segments_[static_cast<size_t>(segno - 1)].tuple_count;
    return Refill(run, stats);
  }
  if (stats != nullptr) stats->tuples_scanned += run->records.size();
  return TrimRecords(&run->records, rows.blob != nullptr ? 0 : kFixedBytes,
                     name_);
}

Status SegmentedStore::Refill(Run* run, StoreScanStats* stats) const {
  run->records.clear();
  run->pos = 0;
  while (run->records.empty() && run->left > 0) {
    if (run->next_page == run->end_page) {
      return Status::Corruption("frozen segment of " + name_ +
                                " ends before its last row");
    }
    const uint64_t n = arch_->heap().ViewPage(*run->next_page++,
                                              run->first_slot, run->left,
                                              &run->records);
    run->first_slot = 0;
    run->left -= n;
    if (stats != nullptr) stats->tuples_scanned += n;
  }
  return TrimRecords(&run->records, kFixedBytes, name_);
}

Result<bool> SegmentedStore::Emit(
    std::string_view record, bool frozen,
    const std::optional<TimeInterval>& filter,
    const std::function<bool(const Tuple&)>& fn) const {
  int64_t tend = TendDays(record);
  bool corrected = false;
  if (frozen && tend == kForeverDays) {
    MutexLock l(closes_mu_);
    auto it = closed_after_freeze_.find(KeyOf(record));
    if (it != closed_after_freeze_.end()) {
      tend = it->second.days();
      corrected = true;
    }
  }
  if (filter && (TstartDays(record) > filter->tend.days() ||
                 tend < filter->tstart.days())) {
    return true;
  }
  ARCHIS_ASSIGN_OR_RETURN(Tuple row, Tuple::Decode(row_schema_, record));
  if (corrected) row.at(tend_col_) = Value(Date(tend));
  return fn(row);
}

Status SegmentedStore::ScanSegments(
    const std::vector<int64_t>& segnos, bool include_live,
    const std::optional<TimeInterval>& filter,
    std::optional<int64_t> id_filter,
    const std::function<bool(const Tuple&)>& fn,
    StoreScanStats* stats) const {
  // One run per source, newest first: the live segment, then frozen
  // segments by descending segno.
  Arena arena;
  std::vector<Run> runs(segnos.size() + (include_live ? 1 : 0));
  if (runs.empty()) return Status::OK();
  size_t next = 0;
  if (include_live) {
    ARCHIS_RETURN_NOT_OK(OpenLiveRun(id_filter, &arena, &runs[next++], stats));
  }
  for (auto it = segnos.rbegin(); it != segnos.rend(); ++it) {
    ARCHIS_RETURN_NOT_OK(
        OpenFrozenRun(*it, filter, id_filter, &arena, &runs[next++], stats));
  }
  // One source (the snapshot fast path — exactly one covering segment,
  // Section 6.1 — or a live-only scan) holds one copy per version and
  // streams in storage order. Several are merged by (id, tstart): frozen
  // runs are stored in that order, the live run is sorted here.
  const bool merge = runs.size() > 1;
  if (merge && include_live) {
    std::stable_sort(runs[0].records.begin(), runs[0].records.end(),
                     [](std::string_view a, std::string_view b) {
                       return KeyOf(a) < KeyOf(b);
                     });
  }

  // On a tie the run with the smaller index — the newer source — surfaces
  // first; its copy is the one filtered and emitted, and the older copies
  // of that version are skipped. The time filter cannot apply earlier: an
  // older copy may still be open where the newest is already closed.
  struct Head {
    size_t run;
    VersionKey key;
  };
  auto after = [](const Head& a, const Head& b) {
    return a.key != b.key ? a.key > b.key : a.run > b.run;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heads(after);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].records.empty()) heads.push({r, KeyOf(runs[r].records[0])});
  }
  std::optional<VersionKey> last;
  while (!heads.empty()) {
    Head h = heads.top();
    heads.pop();
    Run& run = runs[h.run];
    if (!merge || h.key != last) {
      last = h.key;
      ARCHIS_ASSIGN_OR_RETURN(
          bool more, Emit(run.records[run.pos], run.frozen, filter, fn));
      if (!more) return Status::OK();
    }
    if (++run.pos == run.records.size() && run.left > 0) {
      ARCHIS_RETURN_NOT_OK(Refill(&run, stats));
    }
    if (run.pos < run.records.size()) {
      h.key = KeyOf(run.records[run.pos]);
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
  for (const FrozenRows& rows : frozen_) {
    if (rows.blob != nullptr) total += rows.blob->CompressedBytes();
  }
  return total;
}

uint64_t SegmentedStore::BlocksOverlapping(
    size_t index, const std::optional<TimeInterval>& window) const {
  const CompressedSegment* blob = compressed_segment(index);
  return blob == nullptr ? 0 : blob->BlocksOverlapping(window);
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
