#include "archis/segment_manager.h"

#include <algorithm>
#include <queue>

#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/metrics.h"
#include "minirel/executor.h"

namespace archis::core {

using minirel::Schema;
using minirel::Table;
using minirel::Tuple;
using minirel::Value;

namespace {

// Clustering observability (DESIGN.md §9): every freeze decision records
// the usefulness ratio U = N_live / N_all it was taken at, so the paper's
// usefulness-based clustering behaviour (TR-81 §6) is measurable on any
// workload, not just in the umin benchmark.
metrics::Counter* FreezesMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_segment_freezes_total",
      "Live segments frozen (usefulness-based clustering events)");
  return c;
}

metrics::Histogram* FreezeUsefulnessMetric() {
  static metrics::Histogram* h = metrics::Registry::Global().GetHistogram(
      "archis_segment_freeze_usefulness",
      "Usefulness ratio U = N_live/N_all observed at freeze time",
      metrics::LinearBuckets(0.05, 0.05, 20));
  return h;
}

metrics::Gauge* FrozenSegmentsMetric() {
  static metrics::Gauge* g = metrics::Registry::Global().GetGauge(
      "archis_frozen_segments",
      "Frozen segments currently held across all stores in this process");
  return g;
}

metrics::Counter* FrozenTuplesMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_segment_frozen_tuples_total",
      "Tuples moved from live to frozen segments");
  return c;
}

metrics::Counter* SegmentScansMetric() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "archis_segment_scans_total",
      "Segments (live or frozen) visited by store scans");
  return c;
}

/// Identity of one version across segment copies: (id, tstart days).
/// Frozen segments are stored in this order, and multi-source scans emit
/// in it.
using VersionKey = std::pair<int64_t, int64_t>;

VersionKey VersionOf(const Tuple& row, size_t tstart_col) {
  return {row.at(0).AsInt(), row.at(tstart_col).AsDate().days()};
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
  auto store = std::unique_ptr<SegmentedStore>(new SegmentedStore());
  store->name_ = name;
  store->row_schema_ = row_schema;
  store->options_ = options;
  store->db_ = db;
  store->live_start_ = open_date;
  store->tstart_col_ = row_schema.num_columns() - 2;
  store->tend_col_ = row_schema.num_columns() - 1;

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
  FrozenSegmentsMetric()->Add(-static_cast<int64_t>(segments_.size()));
}

Status SegmentedStore::InsertVersion(int64_t id,
                                     const std::vector<Value>& values,
                                     Date now) {
  if (values.size() + 3 != row_schema_.num_columns()) {
    return Status::InvalidArgument("value arity mismatch for " + name_);
  }
  Tuple row;
  row.Append(Value(id));
  for (const Value& v : values) row.Append(v);
  row.Append(Value(now));
  row.Append(Value(Date::Forever()));
  ARCHIS_RETURN_NOT_OK(live_->Insert(row).status());
  ++live_total_;
  ++live_current_;
  ++stats_.versions_total;
  ++stats_.versions_open;
  stats_.tstart_hist.Add(now.days());
  stats_.distinct_ids.Add(id);
  dirty_.emplace(id, now.days());
  return Status::OK();
}

Status SegmentedStore::LoadVersion(int64_t id,
                                   const std::vector<Value>& values,
                                   const TimeInterval& interval) {
  if (values.size() + 3 != row_schema_.num_columns()) {
    return Status::InvalidArgument("value arity mismatch for " + name_);
  }
  if (!interval.valid()) {
    return Status::InvalidArgument("invalid interval for " + name_);
  }
  Tuple row;
  row.Append(Value(id));
  for (const Value& v : values) row.Append(v);
  row.Append(Value(interval.tstart));
  row.Append(Value(interval.tend));
  ARCHIS_RETURN_NOT_OK(live_->Insert(row).status());
  ++live_total_;
  if (interval.is_current()) ++live_current_;
  ++stats_.versions_total;
  stats_.tstart_hist.Add(interval.tstart.days());
  stats_.distinct_ids.Add(id);
  if (interval.is_current()) {
    ++stats_.versions_open;
  } else {
    stats_.tend_hist.Add(interval.tend.days());
  }
  dirty_.emplace(id, interval.tstart.days());
  return Status::OK();
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
  ARCHIS_RETURN_NOT_OK(live_->Update(&rid, row));
  // Keep the open/closed counters coherent; the full statistics snapshot
  // is installed from the delta's stats blob afterwards.
  if (was_open && !interval.is_current()) {
    if (live_current_ > 0) --live_current_;
    if (stats_.versions_open > 0) --stats_.versions_open;
  } else if (!was_open && interval.is_current()) {
    ++live_current_;
    ++stats_.versions_open;
  }
  dirty_.emplace(id, tstart.days());
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

Status SegmentedStore::FindOpenVersion(int64_t id,
                                       std::optional<storage::RecordId>* rid,
                                       std::optional<Tuple>* row) {
  const minirel::TableIndex* idx = live_->GetIndex("id");
  minirel::IndexKey key{Value(id)};
  ARCHIS_RETURN_NOT_OK(live_->IndexScan(
      *idx, key, key, [&](const storage::RecordId& r, const Tuple& t) {
        if (t.at(tend_col_).AsDate().IsForever()) {
          *rid = r;
          *row = t;
          return false;
        }
        return true;
      }));
  if (!rid->has_value()) {
    return Status::NotFound("no live version of id " + std::to_string(id) +
                            " in " + name_);
  }
  return Status::OK();
}

Status SegmentedStore::CloseVersion(int64_t id, Date now) {
  std::optional<storage::RecordId> found_rid;
  std::optional<Tuple> found_row;
  ARCHIS_RETURN_NOT_OK(FindOpenVersion(id, &found_rid, &found_row));
  Tuple row = *found_row;
  // Close the interval the day before the change takes effect, matching the
  // paper's adjacent-interval samples (…02/19/1989][02/20/1989…).
  Date end = now.AddDays(-1);
  if (end < row.at(tstart_col_).AsDate()) end = row.at(tstart_col_).AsDate();
  row.at(tend_col_) = Value(end);
  storage::RecordId rid = *found_rid;
  ARCHIS_RETURN_NOT_OK(live_->Update(&rid, row));
  if (live_current_ > 0) --live_current_;
  if (stats_.versions_open > 0) --stats_.versions_open;
  stats_.tend_hist.Add(end.days());
  dirty_.emplace(id, row.at(tstart_col_).AsDate().days());
  return FreezeIfNeeded(now);
}

Status SegmentedStore::ReplaceVersion(int64_t id,
                                      const std::vector<Value>& values,
                                      Date now) {
  if (values.size() + 3 != row_schema_.num_columns()) {
    return Status::InvalidArgument("value arity mismatch for " + name_);
  }
  std::optional<storage::RecordId> found_rid;
  std::optional<Tuple> found_row;
  ARCHIS_RETURN_NOT_OK(FindOpenVersion(id, &found_rid, &found_row));
  if (found_row->at(tstart_col_).AsDate() == now) {
    // The open version was born today; overwrite its value columns so the
    // store never holds two versions sharing (id, tstart). A frozen copy of
    // the old value may exist, but the live row is the newer source and
    // shadows it in every scan.
    Tuple row = *found_row;
    for (size_t i = 0; i < values.size(); ++i) row.at(1 + i) = values[i];
    storage::RecordId rid = *found_rid;
    ARCHIS_RETURN_NOT_OK(live_->Update(&rid, row));
    dirty_.emplace(id, now.days());
    return Status::OK();
  }
  Tuple row = *found_row;
  Date closed_at = now.AddDays(-1);
  if (closed_at < row.at(tstart_col_).AsDate()) {
    closed_at = row.at(tstart_col_).AsDate();
  }
  row.at(tend_col_) = Value(closed_at);
  storage::RecordId rid = *found_rid;
  ARCHIS_RETURN_NOT_OK(live_->Update(&rid, row));
  if (live_current_ > 0) --live_current_;
  if (stats_.versions_open > 0) --stats_.versions_open;
  stats_.tend_hist.Add(closed_at.days());
  dirty_.emplace(id, row.at(tstart_col_).AsDate().days());
  ARCHIS_RETURN_NOT_OK(FreezeIfNeeded(now));
  return InsertVersion(id, values, now);
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

  // 1. Collect every tuple of the live segment, sorted by (id, tstart).
  std::vector<Tuple> rows;
  rows.reserve(live_total_);
  ARCHIS_RETURN_NOT_OK(
      live_->Scan([&](const storage::RecordId&, const Tuple& row) {
        rows.push_back(row);
        return true;
      }));
  std::sort(rows.begin(), rows.end(), [&](const Tuple& a, const Tuple& b) {
    return VersionOf(a, tstart_col_) < VersionOf(b, tstart_col_);
  });

  // 2. Allocate the segment and record its interval.
  SegmentInfo info;
  info.segno = next_segno_++;
  info.interval = MakeInterval(live_start_, now);
  info.tuple_count = rows.size();
  info.compressed = options_.compress;
  // Rows are (id, tstart)-sorted, so the exact distinct-id count of the
  // segment is one transition scan (planner input, DESIGN.md §11).
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].at(0).AsInt() != rows[i - 1].at(0).AsInt()) {
      ++info.distinct_ids;
    }
  }

  // 3. Materialise the frozen segment: BlockZIP blob or id-clustered rows.
  if (options_.compress) {
    ARCHIS_ASSIGN_OR_RETURN(
        std::unique_ptr<CompressedSegment> seg,
        CompressedSegment::Build(row_schema_, rows, options_.block_size,
                                 options_.block_cache_bytes));
    info.blocks = seg->block_count();
    compressed_.push_back(std::move(seg));
  } else {
    compressed_.push_back(nullptr);
    for (const Tuple& row : rows) {
      Tuple arch_row;
      arch_row.Append(Value(info.segno));
      for (const Value& v : row.values()) arch_row.Append(v);
      ARCHIS_RETURN_NOT_OK(arch_->Insert(arch_row).status());
    }
  }
  segments_.push_back(info);

  // 4. New live segment with only the live tuples; drop the old one.
  std::vector<Tuple> carried;
  for (const Tuple& row : rows) {
    if (row.at(tend_col_).AsDate().IsForever()) carried.push_back(row);
  }
  ARCHIS_RETURN_NOT_OK(db_->catalog().DropTable(name_ + "__live"));
  ARCHIS_ASSIGN_OR_RETURN(live_, db_->catalog().CreateTable(name_ + "__live",
                                                            row_schema_));
  ARCHIS_RETURN_NOT_OK(live_->CreateIndex("id",
                                          {row_schema_.column(0).name}));
  for (const Tuple& row : carried) {
    ARCHIS_RETURN_NOT_OK(live_->Insert(row).status());
  }
  live_total_ = carried.size();
  live_current_ = carried.size();
  live_start_ = now;
  FreezesMetric()->Inc();
  FreezeUsefulnessMetric()->Observe(usefulness_at_freeze);
  FrozenSegmentsMetric()->Add(1);
  FrozenTuplesMetric()->Inc(info.tuple_count);
  fr::Record(fr::EventType::kSegmentFreeze, info.segno, info.tuple_count, 0,
             name_);
  logging::Debug("segment.freeze")
      .Kv("store", name_)
      .Kv("segno", info.segno)
      .Kv("usefulness", usefulness_at_freeze)
      .Kv("tuples", info.tuple_count)
      .Kv("carried_live", carried.size())
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
  SegmentScansMetric()->Inc();
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
  SegmentScansMetric()->Inc();
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
    return ScanFrozenSegment(segnos.front(), filter, id_filter, emit, stats);
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
  // emitted, and the older copies of that version are skipped.
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
  while (!heads.empty()) {
    Head h = heads.top();
    heads.pop();
    const Tuple& row = runs[h.run][h.pos];
    if (h.key != last) {
      last = h.key;
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
