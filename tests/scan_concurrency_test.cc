// Tests for the read path: a multi-segment scan (the k-way merge of the
// frozen runs and the live run) must equal an unsegmented twin sorted by
// (id, tstart), content AND order; concurrent read-only clients must all
// see the same result; the decompressed-block LRU cache must hit/evict as
// configured; and the temporal zone maps must prune blocks without
// changing scan output.
//
// This suite is expected to pass under -DARCHIS_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <thread>

#include "archis/archis.h"
#include "archis/segment_manager.h"
#include "compress/blob_store.h"
#include "xml/serializer.h"

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
                                          const std::string& name) {
  auto store =
      SegmentedStore::Create(db, name, SalarySchema(), opts, D(1990, 1, 1));
  EXPECT_TRUE(store.ok());
  return std::move(*store);
}

// Deterministic multi-segment workload: 30 ids churned over ~4 years so a
// umin of 0.6 freezes several segments.
void RunWorkload(SegmentedStore* store) {
  std::mt19937 rng(7);
  Date day = D(1990, 1, 1);
  for (int64_t id = 1; id <= 30; ++id) {
    ASSERT_TRUE(
        store->InsertVersion(id, {Value(int64_t{1000 * id})}, day).ok());
  }
  for (int step = 0; step < 600; ++step) {
    day = day.AddDays(1 + static_cast<int64_t>(rng() % 3));
    int64_t id = 1 + static_cast<int64_t>(rng() % 30);
    if (store->CloseVersion(id, day).ok()) {
      ASSERT_TRUE(
          store->InsertVersion(id, {Value(int64_t{step})}, day).ok());
    }
  }
}

// Serializes a scan's emitted rows, order included.
std::string Rows(const SegmentedStore& store,
                 const std::function<Status(
                     const std::function<bool(const Tuple&)>&)>& scan) {
  std::ostringstream out;
  Status st = scan([&](const Tuple& row) {
    out << row.at(0).AsInt() << '|' << row.at(1).AsInt() << '|'
        << row.at(2).AsDate().days() << '|' << row.at(3).AsDate().days()
        << '\n';
    return true;
  });
  EXPECT_TRUE(st.ok()) << st.ToString() << " on " << store.name();
  return out.str();
}

std::string HistoryRows(const SegmentedStore& s) {
  return Rows(s, [&](auto fn) { return s.ScanHistory(fn); });
}
std::string IntervalRows(const SegmentedStore& s, const TimeInterval& iv) {
  return Rows(s, [&](auto fn) { return s.ScanInterval(iv, fn); });
}
std::string SnapshotRows(const SegmentedStore& s, Date t) {
  return Rows(s, [&](auto fn) { return s.ScanSnapshot(t, fn); });
}
std::string IdRows(const SegmentedStore& s, int64_t id) {
  return Rows(s, [&](auto fn) { return s.ScanId(id, fn); });
}

// Stable (id, tstart) order of a scan's rows, as Rows() renders them.
std::string SortedRows(const std::string& rows) {
  std::vector<std::pair<std::pair<int64_t, int64_t>, std::string>> lines;
  std::istringstream in(rows);
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    int64_t id = 0, salary = 0, tstart = 0;
    char bar = 0;
    fields >> id >> bar >> salary >> bar >> tstart;
    lines.push_back({{id, tstart}, line});
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::string out;
  for (const auto& l : lines) out += l.second + '\n';
  return out;
}

class MultiSegmentScanTest : public ::testing::TestWithParam<bool> {};

// The one multi-source scan contract: every scan flavour over a store with
// several frozen segments emits what an unsegmented twin fed the same
// updates holds, in (id, tstart) order, compressed and uncompressed.
TEST_P(MultiSegmentScanTest, MatchesUnsegmentedTwin) {
  const bool compressed = GetParam();
  minirel::Database db;
  SegmentOptions segmented;
  segmented.umin = 0.6;
  segmented.compress = compressed;
  SegmentOptions flat;
  flat.enabled = false;
  auto a = MakeStore(&db, segmented, "segmented");
  auto twin = MakeStore(&db, flat, "flat");
  RunWorkload(a.get());
  RunWorkload(twin.get());
  ASSERT_GE(a->segments().size(), 2u);
  ASSERT_TRUE(twin->segments().empty());

  StoreScanStats stats;
  std::string hist = Rows(*a, [&](auto fn) {
    return a->ScanHistory(fn, &stats);
  });
  EXPECT_EQ(hist, SortedRows(HistoryRows(*twin)));

  // Stats parity: every stored copy of every source is counted once.
  EXPECT_EQ(stats.segments_scanned, a->segments().size() + 1);
  EXPECT_EQ(stats.tuples_scanned, a->TotalTuples());
  EXPECT_GT(a->TotalTuples(), twin->TotalTuples());  // frozen duplicates
  if (compressed) {
    uint64_t blocks = 0;
    for (const SegmentInfo& seg : a->segments()) blocks += seg.blocks;
    EXPECT_EQ(stats.blocks_decompressed + stats.block_cache_hits, blocks);
  }

  for (const TimeInterval& iv :
       {TimeInterval(D(1990, 6, 1), D(1992, 6, 1)),
        TimeInterval(D(1991, 1, 1), D(1991, 3, 1)),
        TimeInterval(D(1990, 1, 1), Date::Forever())}) {
    EXPECT_EQ(IntervalRows(*a, iv), SortedRows(IntervalRows(*twin, iv)))
        << iv.ToString();
  }
  // Snapshots inside frozen segments read the one covering segment, which
  // is stored id-sorted; versions closed since it froze report their tend.
  for (const SegmentInfo& seg : a->segments()) {
    Date t = seg.interval.tstart.AddDays(
        (seg.interval.tend.days() - seg.interval.tstart.days()) / 2);
    EXPECT_EQ(SnapshotRows(*a, t), SortedRows(SnapshotRows(*twin, t)))
        << t.ToString();
  }
  for (int64_t id : {int64_t{1}, int64_t{15}, int64_t{30}}) {
    EXPECT_EQ(IdRows(*a, id), SortedRows(IdRows(*twin, id))) << "id " << id;
  }

  // `fn` returning false stops the merge: the rows seen are a prefix.
  int left = 25;
  std::string prefix = Rows(*a, [&](auto fn) {
    return a->ScanHistory([&](const Tuple& row) {
      fn(row);
      return --left > 0;
    });
  });
  EXPECT_EQ(left, 0);
  EXPECT_EQ(hist.substr(0, prefix.size()), prefix);
}

INSTANTIATE_TEST_SUITE_P(CompressedAndNot, MultiSegmentScanTest,
                         ::testing::Bool());

// A version frozen while open and closed since keeps tend = forever in its
// frozen copies; scans pruned away from the copies that know the close —
// one covering segment, or a merge of older segments only — still report
// the tend it was closed at.
TEST(SegmentMergeTest, PrunedScansReportTheLaterClose) {
  minirel::Database db;
  auto store = MakeStore(&db, SegmentOptions(), "s");
  const Date day0 = D(1990, 1, 1);
  auto day = [&](int n) { return day0.AddDays(n); };
  auto row = [&](int64_t id, int64_t v, Date tend) {
    return std::to_string(id) + '|' + std::to_string(v) + '|' +
           std::to_string(day0.days()) + '|' + std::to_string(tend.days()) +
           '\n';
  };
  ASSERT_TRUE(store->InsertVersion(1, {Value(int64_t{100})}, day0).ok());
  ASSERT_TRUE(store->InsertVersion(2, {Value(int64_t{200})}, day0).ok());
  ASSERT_TRUE(store->Freeze(day(10)).ok());       // both open in segment 1
  ASSERT_TRUE(store->Freeze(day(20)).ok());       // both open in segment 2
  ASSERT_TRUE(store->CloseVersion(1, day(25)).ok());
  ASSERT_TRUE(store->Freeze(day(30)).ok());       // closed in segment 3
  ASSERT_EQ(store->segments().size(), 3u);
  const std::string want =
      row(1, 100, day(24)) + row(2, 200, Date::Forever());
  StoreScanStats one, two;
  // One covering segment (the single-source path).
  EXPECT_EQ(Rows(*store, [&](auto fn) {
              return store->ScanSnapshot(day(5), fn, &one);
            }),
            want);
  EXPECT_EQ(one.segments_scanned, 1u);
  // Segments 1 and 2 merged; neither knows the close.
  EXPECT_EQ(Rows(*store, [&](auto fn) {
              return store->ScanInterval(TimeInterval(day(5), day(15)), fn,
                                         &two);
            }),
            want);
  EXPECT_EQ(two.segments_scanned, 2u);
}

// The time filter applies to the newest copy of a version only. Here the
// frozen copy of id 1 is still open while the live copy closed the day
// before the window, so id 1 must not appear although the older copy
// overlaps the window.
TEST(SegmentMergeTest, NewestCopyDecidesTheTimeFilter) {
  minirel::Database db;
  auto store = MakeStore(&db, SegmentOptions(), "s");
  const Date day0 = D(1990, 1, 1);
  const Date day10 = day0.AddDays(10);
  ASSERT_TRUE(store->InsertVersion(1, {Value(int64_t{100})}, day0).ok());
  ASSERT_TRUE(store->InsertVersion(2, {Value(int64_t{200})}, day0).ok());
  ASSERT_TRUE(store->Freeze(day10).ok());
  ASSERT_TRUE(store->CloseVersion(1, day10).ok());
  ASSERT_EQ(store->segments().size(), 1u);

  StoreScanStats stats;
  std::string got = Rows(*store, [&](auto fn) {
    return store->ScanInterval(TimeInterval(day10, day10), fn, &stats);
  });
  EXPECT_EQ(got, "2|200|" + std::to_string(day0.days()) + '|' +
                     std::to_string(Date::Forever().days()) + '\n');
  EXPECT_EQ(stats.segments_scanned, 2u);  // both sources were merged
}

// N client threads hammer one store with mixed scans; every result must
// equal a single-threaded twin's. Exercises the shared block cache and the
// page-manager stat counters under TSan.
TEST(ScanConcurrencyTest, ConcurrentClientsSeeIdenticalResults) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.6;
  opts.compress = true;
  auto ref = MakeStore(&db, opts, "ref");
  auto store = MakeStore(&db, opts, "hot");
  RunWorkload(ref.get());
  RunWorkload(store.get());
  ASSERT_GE(store->segments().size(), 2u);

  const std::string want_hist = HistoryRows(*ref);
  const TimeInterval iv(D(1990, 6, 1), D(1992, 6, 1));
  const std::string want_iv = IntervalRows(*ref, iv);

  constexpr int kClients = 8;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        if ((c + round) % 2 == 0) {
          if (HistoryRows(*store) != want_hist) ++mismatches[c];
        } else {
          if (IntervalRows(*store, iv) != want_iv) ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
}

// The same for uncompressed segments, which scans read as page runs
// (views into __arch pages): 4 clients run multi-source history, interval
// and id scans side by side.
TEST(ScanConcurrencyTest, ConcurrentPageRunScansSeeIdenticalResults) {
  minirel::Database db;
  SegmentOptions opts;
  opts.umin = 0.6;
  auto ref = MakeStore(&db, opts, "ref");
  auto store = MakeStore(&db, opts, "hot");
  RunWorkload(ref.get());
  RunWorkload(store.get());
  ASSERT_GE(store->segments().size(), 2u);

  const std::string want_hist = HistoryRows(*ref);
  const TimeInterval iv(D(1990, 6, 1), D(1992, 6, 1));
  const std::string want_iv = IntervalRows(*ref, iv);
  const std::string want_id = IdRows(*ref, 15);

  constexpr int kClients = 4;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 6; ++round) {
        switch ((c + round) % 3) {
          case 0:
            if (HistoryRows(*store) != want_hist) ++mismatches[c];
            break;
          case 1:
            if (IntervalRows(*store, iv) != want_iv) ++mismatches[c];
            break;
          default:
            if (IdRows(*store, 15) != want_id) ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
}

// ---------------------------------------------------------------------------
// BlobStore-level cache and zone-map unit tests.
// ---------------------------------------------------------------------------

// Multi-block store whose record times advance with sid: record i lives
// [base + 10 * i, base + 10 * i + 9]. Payloads carry a pseudo-random tail
// so zlib cannot collapse hundreds of records into one block.
std::unique_ptr<compress::BlobStore> MakeBlobStore(size_t records,
                                                   uint64_t cache_bytes) {
  std::mt19937 rng(17);
  std::vector<std::pair<int64_t, std::string>> recs;
  std::vector<TimeInterval> times;
  recs.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    std::string payload = "payload-" + std::to_string(i) + "-";
    for (int j = 0; j < 200; ++j) {
      payload.push_back(static_cast<char>('a' + rng() % 26));
    }
    recs.emplace_back(static_cast<int64_t>(i), payload);
    Date start = D(1990, 1, 1).AddDays(static_cast<int64_t>(10 * i));
    times.emplace_back(start, start.AddDays(9));
  }
  compress::BlockZipOptions zip;
  zip.block_size = 512;  // force many blocks
  auto store = std::make_unique<compress::BlobStore>();
  EXPECT_TRUE(store->Build(recs, zip, times).ok());
  store->set_cache_capacity(cache_bytes);
  return store;
}

TEST(BlockCacheTest, WarmScanServesEveryBlockFromCache) {
  auto store = MakeBlobStore(400, 64ull << 20);
  ASSERT_GT(store->block_count(), 8u);
  auto consume = [](int64_t, const std::string&) { return true; };

  compress::BlobReadStats cold;
  ASSERT_TRUE(store->ScanAll(consume, &cold).ok());
  EXPECT_EQ(cold.blocks_decompressed, store->block_count());
  EXPECT_EQ(cold.block_cache_hits, 0u);
  EXPECT_EQ(cold.block_cache_misses, store->block_count());
  EXPECT_EQ(store->CachedBytes(), store->RawBytes());

  compress::BlobReadStats warm;
  ASSERT_TRUE(store->ScanAll(consume, &warm).ok());
  EXPECT_EQ(warm.blocks_decompressed, 0u);
  EXPECT_EQ(warm.block_cache_hits, store->block_count());
  EXPECT_EQ(warm.block_cache_misses, 0u);
}

TEST(BlockCacheTest, SmallCapacityEvicts) {
  auto probe = MakeBlobStore(400, 0);
  ASSERT_GT(probe->block_count(), 8u);
  const uint64_t raw = probe->RawBytes();
  auto store = MakeBlobStore(400, raw / 4);
  auto consume = [](int64_t, const std::string&) { return true; };
  ASSERT_TRUE(store->ScanAll(consume).ok());
  // Eviction kept residency under the full working set.
  EXPECT_LT(store->CachedBytes(), raw);
  EXPECT_GT(store->CachedBytes(), 0u);
  // A second full sweep cannot be all-hits: some blocks were evicted.
  compress::BlobReadStats again;
  ASSERT_TRUE(store->ScanAll(consume, &again).ok());
  EXPECT_GT(again.block_cache_misses, 0u);
}

TEST(BlockCacheTest, ZeroCapacityDisablesCaching) {
  auto store = MakeBlobStore(100, 0);
  auto consume = [](int64_t, const std::string&) { return true; };
  compress::BlobReadStats s1, s2;
  ASSERT_TRUE(store->ScanAll(consume, &s1).ok());
  ASSERT_TRUE(store->ScanAll(consume, &s2).ok());
  EXPECT_EQ(store->CachedBytes(), 0u);
  EXPECT_EQ(s2.block_cache_hits, 0u);
  EXPECT_EQ(s2.blocks_decompressed, store->block_count());
}

TEST(ZoneMapTest, TimeWindowPrunesBlocksWithoutLosingRecords) {
  auto store = MakeBlobStore(400, 0);
  ASSERT_GT(store->block_count(), 8u);
  // Records 100..119 live inside this window (10-day versions).
  TimeInterval window(D(1990, 1, 1).AddDays(1000),
                      D(1990, 1, 1).AddDays(1199));
  std::vector<int64_t> got;
  compress::BlobReadStats stats;
  ASSERT_TRUE(store
                  ->ScanRangeInterval(INT64_MIN, INT64_MAX, window,
                                      [&](int64_t sid, const std::string&) {
                                        got.push_back(sid);
                                        return true;
                                      },
                                      &stats)
                  .ok());
  EXPECT_GT(stats.blocks_pruned_by_time, 0u);
  EXPECT_LT(stats.blocks_decompressed, store->block_count());
  // Surviving blocks still contain every qualifying record (sids 100..119),
  // possibly with same-block neighbours; row filtering is the caller's job.
  ASSERT_FALSE(got.empty());
  for (int64_t sid = 100; sid < 120; ++sid) {
    EXPECT_NE(std::find(got.begin(), got.end(), sid), got.end())
        << "sid " << sid << " lost to over-pruning";
  }
  // Zone-map metadata is exact per block.
  for (const compress::BlobBlockMeta& m : store->metadata()) {
    EXPECT_EQ(m.min_tstart,
              D(1990, 1, 1).AddDays(10 * m.start_sid).days());
    EXPECT_EQ(m.max_tend,
              D(1990, 1, 1).AddDays(10 * m.end_sid + 9).days());
  }
}

// Store-level integration: narrow time windows skip blocks of a compressed
// frozen segment whose version times lie outside the window. Ids are
// inserted on staggered days and never closed, so in the id-sorted frozen
// segment each block's min_tstart grows with id — an early window prunes
// every later block via the zone map, while the row output still matches an
// uncompressed twin.
TEST(ZoneMapTest, StoreScanPrunesTimeDisjointBlocks) {
  minirel::Database db;
  SegmentOptions plain;
  auto ref = MakeStore(&db, plain, "plainref");
  SegmentOptions comp = plain;
  comp.compress = true;
  comp.block_size = 256;  // many small blocks per segment
  auto store = MakeStore(&db, comp, "zoned");
  Date day = D(1990, 1, 1);
  for (auto* s : {ref.get(), store.get()}) {
    for (int64_t id = 1; id <= 400; ++id) {
      ASSERT_TRUE(s->InsertVersion(id, {Value(int64_t{1000 + id})},
                                   day.AddDays(10 * (id - 1)))
                      .ok());
    }
    ASSERT_TRUE(s->Freeze(day.AddDays(4200)).ok());
  }
  ASSERT_EQ(store->segments().size(), 1u);

  TimeInterval narrow(D(1990, 1, 5), D(1990, 2, 5));  // ids 1..4 only
  StoreScanStats stats;
  std::string got = Rows(*store, [&](auto fn) {
    return store->ScanInterval(narrow, fn, &stats);
  });
  EXPECT_EQ(got, IntervalRows(*ref, narrow));
  EXPECT_GT(stats.blocks_pruned_by_time, 0u);
}

// Repeated snapshots of a compressed multi-segment store are served from
// the decompressed-block cache on the warm run.
TEST(BlockCacheTest, StoreSnapshotHitsCacheWhenWarm) {
  minirel::Database db;
  SegmentOptions plain;
  plain.umin = 0.6;
  auto ref = MakeStore(&db, plain, "plainref");
  SegmentOptions comp = plain;
  comp.compress = true;
  auto store = MakeStore(&db, comp, "cached");
  RunWorkload(ref.get());
  RunWorkload(store.get());
  ASSERT_GE(store->segments().size(), 2u);

  StoreScanStats cold, warm;
  Date t = D(1991, 7, 1);
  std::string first = Rows(*store, [&](auto fn) {
    return store->ScanSnapshot(t, fn, &cold);
  });
  std::string second = Rows(*store, [&](auto fn) {
    return store->ScanSnapshot(t, fn, &warm);
  });
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, SnapshotRows(*ref, t));
  EXPECT_GT(cold.blocks_decompressed, 0u);
  EXPECT_GT(warm.block_cache_hits, 0u);
  EXPECT_EQ(warm.blocks_decompressed, 0u);
}

// End-to-end: the published H-document (the system's user-visible output)
// of a segmented, compressed instance is byte-identical to that of an
// unsegmented instance fed the same update stream.
TEST(ScanConcurrencyTest, PublishedHistoryIsByteIdenticalToUnsegmented) {
  Schema emp({{"id", DataType::kInt64},
              {"salary", DataType::kInt64},
              {"title", DataType::kString}});
  auto build = [&](bool segmented) {
    ArchISOptions opts;
    opts.segment.enabled = segmented;
    opts.segment.umin = 0.6;
    opts.segment.compress = true;
    auto db = std::make_unique<ArchIS>(opts, D(1995, 1, 1));
    RelationSpec spec;
    spec.name = "employees";
    spec.schema = emp;
    spec.key_columns = {"id"};
    spec.doc_name = "employees.xml";
    EXPECT_TRUE(db->CreateRelation(spec).ok());
    std::mt19937 rng(11);
    Date day = D(1995, 1, 1);
    for (int64_t id = 1; id <= 12; ++id) {
      Tuple row{Value(id), Value(int64_t{40000 + 100 * id}),
                Value(std::string("Engineer"))};
      EXPECT_TRUE(db->Insert("employees", row).ok());
    }
    for (int step = 0; step < 200; ++step) {
      day = day.AddDays(1 + static_cast<int64_t>(rng() % 7));
      EXPECT_TRUE(db->AdvanceClock(day).ok());
      int64_t id = 1 + static_cast<int64_t>(rng() % 12);
      Tuple row{Value(id), Value(int64_t{40000 + 10 * step}),
                Value(step % 3 == 0 ? std::string("Lead")
                                    : std::string("Engineer"))};
      EXPECT_TRUE(db->Update("employees", {Value(id)}, row).ok());
    }
    return db;
  };
  auto segmented = build(true);
  auto flat = build(false);
  auto salary = segmented->archiver().htables("employees");
  ASSERT_TRUE(salary.ok());
  auto store = (*salary)->attribute_store("salary");
  ASSERT_TRUE(store.ok());
  ASSERT_GE((*store)->segments().size(), 2u);
  auto seg_doc = segmented->PublishHistory("employees");
  auto flat_doc = flat->PublishHistory("employees");
  ASSERT_TRUE(seg_doc.ok());
  ASSERT_TRUE(flat_doc.ok());
  EXPECT_EQ(xml::Serialize(*seg_doc), xml::Serialize(*flat_doc));
}

}  // namespace
}  // namespace archis::core
