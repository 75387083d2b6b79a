// Tests for the usefulness-based segment clustering (paper Section 6):
// freeze mechanics, pruning, cross-segment deduplication, the Eq. 3 storage
// bound, and equivalence between segmented / unsegmented / compressed
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "archis/segment_manager.h"

namespace archis::core {
namespace {

using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;
using minirel::Value;

Date D(int y, int m, int d) { return Date::FromYmd(y, m, d); }

Schema SalarySchema() {
  return Schema({{"id", DataType::kInt64},
                 {"salary", DataType::kInt64},
                 {"tstart", DataType::kDate},
                 {"tend", DataType::kDate}});
}

std::unique_ptr<SegmentedStore> MakeStore(minirel::Database* db,
                                          SegmentOptions opts,
                                          const std::string& name = "sal") {
  auto store =
      SegmentedStore::Create(db, name, SalarySchema(), opts, D(1990, 1, 1));
  EXPECT_TRUE(store.ok());
  return std::move(*store);
}

TEST(SegmentedStoreTest, UsefulnessDecaysWithClosesAndTriggersFreeze) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.5;
  auto store = MakeStore(&db, opts);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 10; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(int64_t{1000 * id})}, day)
                    .ok());
  }
  EXPECT_DOUBLE_EQ(store->Usefulness(), 1.0);
  // Update 6 of the 10: each update closes one version and inserts a new
  // one, keeping usefulness above 0.5 until enough dead versions pile up.
  for (int64_t id = 1; id <= 6; ++id) {
    day = day.AddDays(30);
    ASSERT_TRUE(store->CloseVersion(id, day).ok());
    ASSERT_TRUE(store->InsertVersion(id, {Value(int64_t{2000 * id})}, day)
                    .ok());
  }
  // 16 tuples, 10 live -> U = 0.625; close more without replacing.
  ASSERT_TRUE(store->CloseVersion(7, day.AddDays(1)).ok());
  ASSERT_TRUE(store->CloseVersion(8, day.AddDays(2)).ok());
  // Now 16 tuples, 8 live -> U = 0.5; one more close crosses U_min.
  ASSERT_TRUE(store->CloseVersion(9, day.AddDays(3)).ok());
  ASSERT_EQ(store->segments().size(), 1u);
  // New live segment holds exactly the live tuples.
  EXPECT_EQ(store->live_total(), store->live_current());
  EXPECT_EQ(store->live_current(), 7u);  // 10 - 3 closed-without-replace
}

TEST(SegmentedStoreTest, DisabledModeNeverFreezes) {
  minirel::Database db;
  SegmentOptions opts;
  opts.enabled = false;
  auto store = MakeStore(&db, opts);
  Date day = D(1990, 1, 1);
  ASSERT_TRUE(store->InsertVersion(1, {Value(int64_t{100})}, day).ok());
  for (int i = 0; i < 50; ++i) {
    day = day.AddDays(10);
    ASSERT_TRUE(store->CloseVersion(1, day).ok());
    ASSERT_TRUE(store->InsertVersion(1, {Value(int64_t{100 + i})}, day).ok());
  }
  EXPECT_TRUE(store->segments().empty());
  EXPECT_EQ(store->LogicalTuples(), 51u);
}

TEST(SegmentedStoreTest, SameDayReplaceRewritesInPlace) {
  // Closing a version born today and inserting its successor would mint two
  // versions sharing (id, tstart) — the key the multi-source scan dedup
  // collapses. ReplaceVersion must rewrite the open version in place
  // instead, so history output is freeze-state independent.
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.5;
  auto store = MakeStore(&db, opts);
  Date day = D(1990, 1, 1);
  ASSERT_TRUE(store->InsertVersion(1, {Value(int64_t{100})}, day).ok());
  ASSERT_TRUE(store->ReplaceVersion(1, {Value(int64_t{150})}, day).ok());
  ASSERT_TRUE(store->ReplaceVersion(1, {Value(int64_t{175})}, day).ok());
  std::vector<Tuple> rows;
  ASSERT_TRUE(store->ScanHistory([&](const Tuple& row) {
                rows.push_back(row);
                return true;
              }).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(1).AsInt(), 175);
  EXPECT_EQ(rows[0].at(2).AsDate(), day);
  EXPECT_TRUE(rows[0].at(3).AsDate().IsForever());

  // A next-day replace takes the regular close + insert path.
  ASSERT_TRUE(
      store->ReplaceVersion(1, {Value(int64_t{200})}, day.AddDays(1)).ok());
  rows.clear();
  ASSERT_TRUE(store->ScanHistory([&](const Tuple& row) {
                rows.push_back(row);
                return true;
              }).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at(1).AsInt(), 175);
  EXPECT_EQ(rows[0].at(3).AsDate(), day);
  EXPECT_EQ(rows[1].at(1).AsInt(), 200);
  EXPECT_EQ(rows[1].at(2).AsDate(), day.AddDays(1));
  EXPECT_EQ(store->ReplaceVersion(99, {Value(int64_t{1})}, day).code(),
            StatusCode::kNotFound);
}

TEST(SegmentedStoreTest, SameDayReplaceShadowsFrozenCopy) {
  // The open version gets frozen (copied into a segment), then replaced on
  // its birth day: the live rewrite must shadow the stale frozen copy in
  // multi-source scans rather than surface both values.
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.5;
  auto store = MakeStore(&db, opts);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(100 * id)}, day).ok());
  }
  day = day.AddDays(5);
  ASSERT_TRUE(store->InsertVersion(5, {Value(int64_t{500})}, day).ok());
  // Close ids 1-3 without replacement to push U below 0.5 and force a
  // freeze; the frozen segment captures id 5's open version (value 500).
  for (int64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(store->CloseVersion(id, day).ok());
  }
  ASSERT_GE(store->segments().size(), 1u);
  ASSERT_TRUE(store->ReplaceVersion(5, {Value(int64_t{550})}, day).ok());
  std::map<int64_t, std::vector<int64_t>> by_id;
  ASSERT_TRUE(store->ScanHistory([&](const Tuple& row) {
                by_id[row.at(0).AsInt()].push_back(row.at(1).AsInt());
                return true;
              }).ok());
  ASSERT_EQ(by_id[5].size(), 1u);
  EXPECT_EQ(by_id[5][0], 550);
}

TEST(SegmentedStoreTest, CloseVersionErrorsWithoutLiveRow) {
  minirel::Database db;
  auto store = MakeStore(&db, SegmentOptions{});
  EXPECT_EQ(store->CloseVersion(99, D(1991, 1, 1)).code(),
            StatusCode::kNotFound);
}

TEST(SegmentedStoreTest, SegmentInvariantsHold) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.6;
  auto store = MakeStore(&db, opts);
  std::mt19937 rng(99);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(int64_t{id})}, day).ok());
  }
  for (int step = 0; step < 300; ++step) {
    day = day.AddDays(1 + static_cast<int64_t>(rng() % 5));
    int64_t id = 1 + static_cast<int64_t>(rng() % 20);
    Status st = store->CloseVersion(id, day);
    if (st.ok()) {
      ASSERT_TRUE(
          store->InsertVersion(id, {Value(int64_t{step})}, day).ok());
    }
  }
  ASSERT_GE(store->segments().size(), 2u);
  // Frozen segment intervals are ordered and contiguous-ish; every segment
  // has tuples satisfying the pruning conditions (1) and (2) of Section 6.1.
  Date prev_end = D(1900, 1, 1);
  for (const SegmentInfo& seg : store->segments()) {
    EXPECT_LE(prev_end, seg.interval.tstart);
    EXPECT_LE(seg.interval.tstart, seg.interval.tend);
    prev_end = seg.interval.tend;
    EXPECT_GT(seg.tuple_count, 0u);
  }
}

// Equation 3: N_seg / N_noseg <= 1 / (1 - U_min).
class StorageBoundProperty : public ::testing::TestWithParam<double> {};

TEST_P(StorageBoundProperty, Equation3HoldsAfterHeavyUpdates) {
  const double umin = GetParam();
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = umin;
  auto store = MakeStore(&db, opts);
  std::mt19937 rng(7);
  Date day = D(1990, 1, 1);
  const int64_t kIds = 50;
  for (int64_t id = 1; id <= kIds; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(id)}, day).ok());
  }
  for (int step = 0; step < 2000; ++step) {
    day = day.AddDays(1);
    int64_t id = 1 + static_cast<int64_t>(rng() % kIds);
    if (store->CloseVersion(id, day).ok()) {
      ASSERT_TRUE(store->InsertVersion(id, {Value(int64_t{step})}, day).ok());
    }
  }
  const double n_noseg = static_cast<double>(store->LogicalTuples());
  const double n_seg = static_cast<double>(store->TotalTuples());
  // Paper Eq. 3 bounds the *archived* blowup; the live segment adds at most
  // one more copy of the live tuples, so compare against the bound plus
  // that slack.
  const double bound = 1.0 / (1.0 - umin);
  EXPECT_LE(n_seg / n_noseg, bound + 1.0)
      << "umin=" << umin << " n_seg=" << n_seg << " n_noseg=" << n_noseg;
  // And segmentation really does duplicate (sanity that the test bites).
  if (!store->segments().empty()) EXPECT_GT(n_seg, n_noseg);
}

INSTANTIATE_TEST_SUITE_P(UminSweep, StorageBoundProperty,
                         ::testing::Values(0.2, 0.26, 0.36, 0.4));

// Cross-configuration equivalence: the same update stream must yield the
// same query answers with clustering on, off, and compressed (paper
// Sections 6-8 change the layout, never the semantics).
class EquivalenceProperty : public ::testing::TestWithParam<uint32_t> {
 protected:
  struct Version {
    int64_t id;
    int64_t salary;
    TimeInterval iv;
  };

  static std::vector<Version> Reference(const SegmentedStore& store) {
    std::vector<Version> out;
    Status st = store.ScanHistory([&](const Tuple& row) {
      out.push_back({row.at(0).AsInt(), row.at(1).AsInt(),
                     TimeInterval(row.at(2).AsDate(), row.at(3).AsDate())});
      return true;
    });
    EXPECT_TRUE(st.ok());
    return out;
  }
};

TEST_P(EquivalenceProperty, AllConfigurationsAgree) {
  std::mt19937 rng(GetParam());
  // Three configurations fed the identical stream.
  minirel::Database db1, db2, db3;
  SegmentOptions seg_on;
  seg_on.umin = 0.4;
  SegmentOptions seg_off;
  seg_off.enabled = false;
  SegmentOptions seg_zip;
  seg_zip.umin = 0.4;
  seg_zip.compress = true;
  auto a = MakeStore(&db1, seg_on, "a");
  auto b = MakeStore(&db2, seg_off, "b");
  auto c = MakeStore(&db3, seg_zip, "c");

  Date day = D(1990, 1, 1);
  const int64_t kIds = 30;
  for (int64_t id = 1; id <= kIds; ++id) {
    for (auto* s : {a.get(), b.get(), c.get()}) {
      ASSERT_TRUE(s->InsertVersion(id, {Value(id * 10)}, day).ok());
    }
  }
  for (int step = 0; step < 600; ++step) {
    day = day.AddDays(1 + static_cast<int64_t>(rng() % 3));
    int64_t id = 1 + static_cast<int64_t>(rng() % kIds);
    int64_t salary = 1000 + static_cast<int64_t>(rng() % 9000);
    for (auto* s : {a.get(), b.get(), c.get()}) {
      if (s->CloseVersion(id, day).ok()) {
        ASSERT_TRUE(s->InsertVersion(id, {Value(salary)}, day).ok());
      }
    }
  }

  auto ra = Reference(*a);
  auto rb = Reference(*b);
  auto rc = Reference(*c);
  auto key = [](const Version& v) {
    return std::make_tuple(v.id, v.iv.tstart.days(), v.iv.tend.days(),
                           v.salary);
  };
  auto normalize = [&](std::vector<Version> v) {
    std::vector<std::tuple<int64_t, int64_t, int64_t, int64_t>> out;
    for (const auto& x : v) out.push_back(key(x));
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(normalize(ra), normalize(rb));
  EXPECT_EQ(normalize(ra), normalize(rc));

  // Snapshot equivalence at sampled dates.
  for (int probe = 0; probe < 12; ++probe) {
    Date t = D(1990, 1, 1).AddDays(static_cast<int64_t>(rng() % 900));
    std::map<int64_t, int64_t> sa, sb, sc;
    auto collect = [&](SegmentedStore* s, std::map<int64_t, int64_t>* out) {
      ASSERT_TRUE(s->ScanSnapshot(t, [&](const Tuple& row) {
        (*out)[row.at(0).AsInt()] = row.at(1).AsInt();
        return true;
      }).ok());
    };
    collect(a.get(), &sa);
    collect(b.get(), &sb);
    collect(c.get(), &sc);
    EXPECT_EQ(sa, sb) << "snapshot at " << t.ToString();
    EXPECT_EQ(sa, sc) << "snapshot at " << t.ToString();
  }

  // Single-object history equivalence.
  for (int64_t id = 1; id <= kIds; id += 7) {
    std::vector<int64_t> ha, hb, hc;
    auto collect = [&](SegmentedStore* s, std::vector<int64_t>* out) {
      ASSERT_TRUE(s->ScanId(id, [&](const Tuple& row) {
        out->push_back(row.at(1).AsInt());
        return true;
      }).ok());
    };
    collect(a.get(), &ha);
    collect(b.get(), &hb);
    collect(c.get(), &hc);
    EXPECT_EQ(ha, hb);
    EXPECT_EQ(ha, hc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceProperty,
                         ::testing::Values(101u, 202u, 303u));

TEST(SegmentedStoreTest, SnapshotPrunesToOneSegment) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.5;
  auto store = MakeStore(&db, opts);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 10; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(id)}, day).ok());
  }
  std::mt19937 rng(1);
  for (int step = 0; step < 200; ++step) {
    day = day.AddDays(3);
    int64_t id = 1 + static_cast<int64_t>(rng() % 10);
    if (store->CloseVersion(id, day).ok()) {
      ASSERT_TRUE(store->InsertVersion(id, {Value(int64_t{step})}, day).ok());
    }
  }
  ASSERT_GE(store->segments().size(), 2u);
  StoreScanStats stats;
  ASSERT_TRUE(store->ScanSnapshot(D(1990, 3, 1), [](const Tuple&) {
    return true;
  }, &stats).ok());
  EXPECT_EQ(stats.segments_scanned, 1u);  // exactly one covering segment
  EXPECT_GT(stats.segments_considered, 2u);
}

TEST(SegmentedStoreTest, CompressedSegmentsPruneBlocksForPointLookups) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.5;
  opts.compress = true;
  opts.block_size = 512;  // small blocks so pruning is observable
  auto store = MakeStore(&db, opts);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 200; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(id)}, day).ok());
  }
  // Close half (no reinserts) to force a freeze.
  for (int64_t id = 1; id <= 120; ++id) {
    day = day.AddDays(1);
    ASSERT_TRUE(store->CloseVersion(id, day).ok());
  }
  ASSERT_GE(store->segments().size(), 1u);
  EXPECT_TRUE(store->segments()[0].compressed);
  StoreScanStats point, full;
  ASSERT_TRUE(store->ScanId(5, [](const Tuple&) { return true; }, &point)
                  .ok());
  ASSERT_TRUE(store->ScanHistory([](const Tuple&) { return true; }, &full)
                  .ok());
  EXPECT_LT(point.blocks_decompressed, full.blocks_decompressed);
}

TEST(SegmentedStoreTest, CompressedScanFailsOnUndecodableRecord) {
  // A record cut short of the schema's (id, salary, tstart, tend): the
  // scan must report it, not drop the row from the answer.
  std::string record;
  Value(int64_t{7}).EncodeTo(&record);
  Value(int64_t{1000}).EncodeTo(&record);
  Value(D(1990, 1, 1)).EncodeTo(&record);
  auto seg = CompressedSegment::Build(
      SalarySchema(), {{7, record}},
      {TimeInterval(D(1990, 1, 1), Date::Forever())}, 4000);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  size_t rows = 0;
  Status st = (*seg)->ScanAll([&](const Tuple&) {
    ++rows;
    return true;
  });
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(rows, 0u);
}

TEST(SegmentedStoreTest, RepeatedFreezesReuseTheDroppedLivePages) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.5;
  opts.compress = true;  // frozen rows leave the page manager entirely
  auto store = MakeStore(&db, opts);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 300; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(id)}, day).ok());
  }
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      day = day.AddDays(1);
      for (int64_t id = 1; id <= 300; ++id) {
        ASSERT_TRUE(store->ReplaceVersion(id, {Value(id + r)}, day).ok());
      }
    }
  };
  churn(5);
  const size_t segments = store->segments().size();
  const size_t pages = db.page_manager().page_count();
  churn(30);
  ASSERT_GE(store->segments().size(), segments + 20);
  // Every freeze drops a live table and makes a new one of the same
  // size: the dropped pages are reused, so the directory stops growing.
  EXPECT_LE(db.page_manager().page_count(), pages + 2);

  // The pages still round-trip through a file, reused ones included.
  std::vector<Tuple> before;
  ASSERT_TRUE(store->ScanHistory([&](const Tuple& row) {
    before.push_back(row);
    return true;
  }).ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "segment_page_reuse.bin")
          .string();
  ASSERT_TRUE(db.page_manager().PersistToFile(path).ok());
  ASSERT_TRUE(db.page_manager().LoadFromFile(path).ok());
  std::remove(path.c_str());
  std::vector<Tuple> after;
  ASSERT_TRUE(store->ScanHistory([&](const Tuple& row) {
    after.push_back(row);
    return true;
  }).ok());
  EXPECT_EQ(before, after);
  churn(1);
}

TEST(SegmentedStoreTest, OpenVersionBehindABulkLoadedClosedOneIsFound) {
  // An H-document import may list a closed version after the open one;
  // the update path must still close the open version.
  minirel::Database db;
  auto store = MakeStore(&db, SegmentOptions{});
  ASSERT_TRUE(store->LoadVersion(
      1, {Value(int64_t{200})}, TimeInterval(D(1991, 1, 1), Date::Forever()))
                  .ok());
  ASSERT_TRUE(store->LoadVersion(
      1, {Value(int64_t{100})}, TimeInterval(D(1990, 1, 1), D(1990, 12, 31)))
                  .ok());
  ASSERT_TRUE(store->ReplaceVersion(1, {Value(int64_t{300})}, D(1992, 1, 1))
                  .ok());
  std::map<int64_t, Date> tend_by_salary;
  ASSERT_TRUE(store->ScanId(1, [&](const Tuple& row) {
    tend_by_salary[row.at(1).AsInt()] = row.at(3).AsDate();
    return true;
  }).ok());
  ASSERT_EQ(tend_by_salary.size(), 3u);
  EXPECT_EQ(tend_by_salary[100], D(1990, 12, 31));
  EXPECT_EQ(tend_by_salary[200], D(1991, 12, 31));
  EXPECT_TRUE(tend_by_salary[300].IsForever());
  EXPECT_EQ(store->live_current(), 1u);
}

// A ScanHistory over uncompressed frozen segments walks each segment's
// pages once, not one page read per row.
TEST(SegmentedStoreTest, HistoryScanReadsEachFrozenPageOnce) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.4;
  auto store = MakeStore(&db, opts);
  std::mt19937 rng(5);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 300; ++id) {
    ASSERT_TRUE(store->InsertVersion(id, {Value(id)}, day).ok());
  }
  for (int step = 0; step < 3000; ++step) {
    day = day.AddDays(1);
    const int64_t id = 1 + static_cast<int64_t>(rng() % 300);
    ASSERT_TRUE(store->ReplaceVersion(id, {Value(int64_t{step})}, day).ok());
  }
  const size_t segments = store->segments().size();
  ASSERT_GE(segments, 3u);
  auto arch = db.catalog().GetTable("sal__arch");
  auto live = db.catalog().GetTable("sal__live");
  ASSERT_TRUE(arch.ok() && live.ok());
  const uint64_t arch_pages = (*arch)->heap().pages().size();
  const uint64_t live_pages = (*live)->heap().pages().size();

  const uint64_t before = db.page_manager().stats().page_reads;
  StoreScanStats stats;
  ASSERT_TRUE(store->ScanHistory([](const Tuple&) { return true; }, &stats)
                  .ok());
  const uint64_t reads = db.page_manager().stats().page_reads - before;
  // A segment's first page may also hold the previous segment's last rows,
  // so it is read once for each of the two.
  EXPECT_LE(reads, arch_pages + (segments - 1) + live_pages);
  EXPECT_EQ(stats.tuples_scanned, store->TotalTuples());
  EXPECT_LT(reads * 10, stats.tuples_scanned);
}

// ---------------------------------------------------------------------------
// Scan equivalence against a brute-force model of the versions.
// ---------------------------------------------------------------------------

/// Every version a store was fed and where its copies lie: the live
/// segment in storage order, and the rows each freeze copied. Scans are
/// answered from it by brute force; a version's values and interval are
/// always its latest ones, whichever copy a scan reads.
class VersionModel {
 public:
  struct Version {
    int64_t id;
    int64_t salary;
    int64_t tstart;  // days
    int64_t tend;
  };
  struct Segment {
    int64_t start;
    int64_t end;
    std::vector<size_t> rows;  // copied versions, (id, tstart) order
  };
  /// What a scan must return: rendered rows, copies visited, sources.
  struct Answer {
    std::string rows;
    uint64_t tuples_scanned = 0;
    uint64_t segments_scanned = 0;
  };

  explicit VersionModel(Date open) : open_date_(open.days()) {
    live_start_ = open_date_;
  }

  const std::vector<Segment>& segments() const { return segments_; }
  bool IsOpen(int64_t id) const { return open_.count(id) != 0; }
  /// Whether `id`'s newest version started on `day`.
  bool StartedOn(int64_t id, Date day) const {
    auto it = last_.find(id);
    return it != last_.end() && versions_[it->second].tstart == day.days();
  }

  void Insert(int64_t id, int64_t salary, Date now) {
    open_[id] = last_[id] = versions_.size();
    live_.push_back(versions_.size());
    versions_.push_back({id, salary, now.days(), Date::Forever().days()});
  }
  /// Closes `id`'s open version the day before `now`, or on its first day.
  void Close(int64_t id, Date now) {
    Version& v = versions_[open_.at(id)];
    v.tend = std::max(v.tstart, now.days() - 1);
    open_.erase(id);
  }
  /// A same-day replace: the open version keeps its identity.
  void ReplaceInPlace(int64_t id, int64_t salary) {
    versions_[open_.at(id)].salary = salary;
  }
  /// A same-day re-insert: the version born and closed today reopens with
  /// the new salary. When a freeze has moved it out of the live segment,
  /// the reopened copy is appended there and shadows the frozen one.
  void Reopen(int64_t id, int64_t salary) {
    const size_t v = last_.at(id);
    versions_[v].salary = salary;
    versions_[v].tend = Date::Forever().days();
    open_[id] = v;
    if (std::find(live_.begin(), live_.end(), v) == live_.end()) {
      live_.push_back(v);
    }
  }
  void Freeze(Date now) {
    Segment seg{live_start_, now.days(), live_};
    SortByKey(&seg.rows);
    segments_.push_back(std::move(seg));
    live_.clear();
    for (size_t v : segments_.back().rows) {
      if (versions_[v].tend == Date::Forever().days()) live_.push_back(v);
    }
    live_start_ = now.days();
  }
  /// A checkpoint restore: the history lands in a fresh live segment, in
  /// the order a history scan returned it.
  void Restore() {
    // Without a segment the live segment already holds every version in
    // the order a history scan streams it.
    if (!segments_.empty()) {
      live_.clear();
      for (size_t v = 0; v < versions_.size(); ++v) live_.push_back(v);
      SortByKey(&live_);
    }
    segments_.clear();
    live_start_ = open_date_;
  }

  // Scans. `store` only counts the rows of the compressed blocks a time
  // window's zone-map test admits; the model knows no block boundaries.
  Answer History(const SegmentedStore& store) const {
    return Scan(store, AllSegments(), true, std::nullopt, std::nullopt);
  }
  Answer Id(const SegmentedStore& store, int64_t id) const {
    return Scan(store, AllSegments(), true, std::nullopt, id);
  }
  Answer Interval(const SegmentedStore& store, Date lo, Date hi) const {
    std::vector<size_t> segs;
    for (size_t k = 0; k < segments_.size(); ++k) {
      if (segments_[k].start <= hi.days() && lo.days() <= segments_[k].end) {
        segs.push_back(k);
      }
    }
    return Scan(store, segs, hi.days() >= live_start_,
                std::make_pair(lo.days(), hi.days()), std::nullopt);
  }
  Answer Snapshot(const SegmentedStore& store, Date t) const {
    const auto window = std::make_pair(t.days(), t.days());
    if (t.days() >= live_start_) {
      return Scan(store, {}, true, window, std::nullopt);
    }
    std::vector<size_t> newest_covering;
    for (size_t k = segments_.size(); k-- > 0;) {
      if (segments_[k].start <= t.days() && t.days() <= segments_[k].end) {
        newest_covering.push_back(k);
        break;
      }
    }
    return Scan(store, newest_covering, false, window, std::nullopt);
  }

 private:
  void SortByKey(std::vector<size_t>* rows) const {
    std::stable_sort(rows->begin(), rows->end(), [&](size_t a, size_t b) {
      return std::make_pair(versions_[a].id, versions_[a].tstart) <
             std::make_pair(versions_[b].id, versions_[b].tstart);
    });
  }
  std::vector<size_t> AllSegments() const {
    std::vector<size_t> all;
    for (size_t k = 0; k < segments_.size(); ++k) all.push_back(k);
    return all;
  }

  Answer Scan(const SegmentedStore& store, const std::vector<size_t>& segs,
              bool live, std::optional<std::pair<int64_t, int64_t>> window,
              std::optional<int64_t> id) const {
    Answer out;
    std::vector<size_t> rows;
    std::set<size_t> seen;
    auto visit = [&](const std::vector<size_t>& copies, bool count) {
      for (size_t v : copies) {
        if (id && versions_[v].id != *id) continue;
        if (count) ++out.tuples_scanned;
        if (seen.insert(v).second) rows.push_back(v);
      }
    };
    if (live) {
      ++out.segments_scanned;
      visit(live_, true);
    }
    for (size_t k : segs) {
      ++out.segments_scanned;
      const CompressedSegment* blob = store.compressed_segment(k);
      const bool zone_mapped = blob != nullptr && window && !id;
      visit(segments_[k].rows, !zone_mapped);
      if (!zone_mapped) continue;
      EXPECT_TRUE(blob->store()
                      .ScanRangeInterval(
                          INT64_MIN, INT64_MAX,
                          TimeInterval(Date(window->first),
                                       Date(window->second)),
                          [&](int64_t, std::string_view) {
                            ++out.tuples_scanned;
                            return true;
                          })
                      .ok());
    }
    // One source streams in its storage order; several merge by key.
    if (out.segments_scanned > 1) SortByKey(&rows);
    for (size_t v : rows) {
      const Version& ver = versions_[v];
      if (window && (ver.tstart > window->second || ver.tend < window->first)) {
        continue;
      }
      out.rows += std::to_string(ver.id) + '|' + std::to_string(ver.salary) +
                  '|' + std::to_string(ver.tstart) + '|' +
                  std::to_string(ver.tend) + '\n';
    }
    return out;
  }

  int64_t open_date_;
  int64_t live_start_;
  std::vector<Version> versions_;
  std::vector<size_t> live_;  // live segment, storage order
  std::vector<Segment> segments_;
  std::map<int64_t, size_t> open_;  // id -> its open version
  std::map<int64_t, size_t> last_;  // id -> its newest version
};

/// A store scan rendered like VersionModel::Answer.
VersionModel::Answer StoreAnswer(
    const std::function<Status(const std::function<bool(const Tuple&)>&,
                               StoreScanStats*)>& scan) {
  VersionModel::Answer out;
  StoreScanStats stats;
  Status st = scan(
      [&](const Tuple& row) {
        out.rows += std::to_string(row.at(0).AsInt()) + '|' +
                    std::to_string(row.at(1).AsInt()) + '|' +
                    std::to_string(row.at(2).AsDate().days()) + '|' +
                    std::to_string(row.at(3).AsDate().days()) + '\n';
        return true;
      },
      &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  out.tuples_scanned = stats.tuples_scanned;
  out.segments_scanned = stats.segments_scanned;
  return out;
}

void ExpectSameAnswer(const VersionModel::Answer& got,
                      const VersionModel::Answer& want,
                      const std::string& scan) {
  EXPECT_EQ(got.rows, want.rows) << scan;
  EXPECT_EQ(got.tuples_scanned, want.tuples_scanned) << scan;
  EXPECT_EQ(got.segments_scanned, want.segments_scanned) << scan;
}

/// (U_min, compress, seed).
class ScanEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, bool, uint32_t>> {};

// Seeded random histories — late closes of versions frozen open, same-day
// replaces, explicit freezes and a checkpoint restore midway: every scan
// flavour returns the model's rows in the model's order and visits the
// model's copies.
TEST_P(ScanEquivalenceTest, EveryScanMatchesTheVersionModel) {
  const auto [umin, compress, seed] = GetParam();
  SegmentOptions opts;
  opts.umin = umin;
  opts.compress = compress;
  opts.block_size = 512;  // several blocks per segment, so zone maps prune
  minirel::Database db;
  const Date origin = D(1990, 1, 1);
  auto store = MakeStore(&db, opts, "s0");
  VersionModel model(origin);
  std::mt19937 rng(seed);
  Date day = origin;
  constexpr int64_t kIds = 25;
  constexpr int kSteps = 900;

  auto check = [&] {
    ASSERT_EQ(store->segments().size(), model.segments().size());
    for (size_t k = 0; k < model.segments().size(); ++k) {
      const SegmentInfo& seg = store->segments()[k];
      ASSERT_EQ(seg.interval.tstart.days(), model.segments()[k].start);
      ASSERT_EQ(seg.interval.tend.days(), model.segments()[k].end);
      ASSERT_EQ(seg.tuple_count, model.segments()[k].rows.size());
    }
    const SegmentedStore& s = *store;
    ExpectSameAnswer(StoreAnswer([&](auto fn, auto* st) {
                       return s.ScanHistory(fn, st);
                     }),
                     model.History(s), "history");
    for (int64_t id = 0; id <= kIds; ++id) {
      ExpectSameAnswer(StoreAnswer([&](auto fn, auto* st) {
                         return s.ScanId(id, fn, st);
                       }),
                       model.Id(s, id), "id " + std::to_string(id));
    }
    // Snapshots at every segment boundary, inside each segment, in the
    // live segment and at random days.
    std::vector<Date> days = {origin, day, s.live_start()};
    for (const auto& seg : model.segments()) {
      days.push_back(Date(seg.start));
      days.push_back(Date(seg.end));
      days.push_back(Date((seg.start + seg.end) / 2));
    }
    for (int i = 0; i < 6; ++i) {
      days.push_back(origin.AddDays(
          static_cast<int64_t>(rng() % (day.days() - origin.days() + 1))));
    }
    for (Date t : days) {
      ExpectSameAnswer(StoreAnswer([&](auto fn, auto* st) {
                         return s.ScanSnapshot(t, fn, st);
                       }),
                       model.Snapshot(s, t), "snapshot " + t.ToString());
    }
    for (size_t i = 0; i + 1 < days.size(); ++i) {
      const Date lo = std::min(days[i], days[i + 1]);
      const Date hi = std::max(days[i], days[i + 1]);
      for (Date end : {hi, Date::Forever()}) {
        ExpectSameAnswer(StoreAnswer([&](auto fn, auto* st) {
                           return s.ScanInterval(TimeInterval(lo, end), fn,
                                                 st);
                         }),
                         model.Interval(s, lo, end),
                         "interval " + lo.ToString() + ".." + end.ToString());
      }
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    if (rng() % 3 == 0) day = day.AddDays(1 + static_cast<int64_t>(rng() % 4));
    const int64_t id = 1 + static_cast<int64_t>(rng() % kIds);
    const int64_t salary = 1000 + static_cast<int64_t>(rng() % 9000);
    const size_t segments = store->segments().size();
    auto froze = [&] { return store->segments().size() > segments; };
    if (step == kSteps / 2) {
      // Checkpoint restore: the history reloaded into a fresh store.
      std::vector<Tuple> rows;
      ASSERT_TRUE(store->ScanHistory([&](const Tuple& row) {
        rows.push_back(row);
        return true;
      }).ok());
      store = MakeStore(&db, opts, "s1");
      ASSERT_TRUE(store->LoadCheckpointRows(rows).ok());
      model.Restore();
      check();
    } else if (rng() % 40 == 0) {
      ASSERT_TRUE(store->Freeze(day).ok());
      model.Freeze(day);
    } else if (!model.IsOpen(id)) {
      ASSERT_TRUE(store->InsertVersion(id, {Value(salary)}, day).ok());
      if (model.StartedOn(id, day)) {
        model.Reopen(id, salary);
      } else {
        model.Insert(id, salary, day);
      }
    } else if (rng() % 4 == 0) {
      ASSERT_TRUE(store->CloseVersion(id, day).ok());
      model.Close(id, day);
      if (froze()) model.Freeze(day);
    } else if (model.StartedOn(id, day)) {
      ASSERT_TRUE(store->ReplaceVersion(id, {Value(salary)}, day).ok());
      model.ReplaceInPlace(id, salary);
    } else {
      ASSERT_TRUE(store->ReplaceVersion(id, {Value(salary)}, day).ok());
      model.Close(id, day);
      if (froze()) model.Freeze(day);
      model.Insert(id, salary, day);
    }
    if (step % 150 == 149) check();
  }
  check();
  EXPECT_GE(model.segments().size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    UminCompressSeed, ScanEquivalenceTest,
    ::testing::Combine(::testing::Values(0.2, 0.4), ::testing::Bool(),
                       ::testing::Values(11u, 22u, 33u)));

}  // namespace
}  // namespace archis::core
