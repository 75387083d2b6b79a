// Unit tests for storage/: slotted pages, heap files, page manager
// persistence, and the B+-tree (including a randomized property check
// against std::multimap).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/bptree.h"
#include "storage/heap_file.h"
#include "storage/page_manager.h"

namespace archis::storage {
namespace {

TEST(PageTest, InsertReadDelete) {
  Page page;
  auto s1 = page.Insert("hello");
  ASSERT_TRUE(s1.ok());
  auto s2 = page.Insert("world!");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*page.Read(*s1), "hello");
  EXPECT_EQ(*page.Read(*s2), "world!");
  EXPECT_EQ(page.live_records(), 2);
  ASSERT_TRUE(page.Delete(*s1).ok());
  EXPECT_EQ(page.Read(*s1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(page.live_records(), 1);
  // Double delete fails cleanly.
  EXPECT_EQ(page.Delete(*s1).code(), StatusCode::kNotFound);
}

TEST(PageTest, FillsUntilFull) {
  Page page;
  std::string record(100, 'x');
  int n = 0;
  while (page.CanFit(static_cast<uint32_t>(record.size()))) {
    ASSERT_TRUE(page.Insert(record).ok());
    ++n;
  }
  EXPECT_GT(n, 30);  // 4 KiB / ~104 bytes
  EXPECT_EQ(page.Insert(record).status().code(), StatusCode::kOutOfRange);
}

TEST(PageTest, UpdateInPlaceShrinksButNotGrows) {
  Page page;
  auto slot = page.Insert("0123456789");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page.UpdateInPlace(*slot, "abc").ok());
  EXPECT_EQ(*page.Read(*slot), "abc");
  EXPECT_EQ(page.UpdateInPlace(*slot, "this grew too long").code(),
            StatusCode::kOutOfRange);
}

TEST(HeapFileTest, AppendScanCount) {
  PageManager pm;
  HeapFile heap(&pm);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(heap.Append("record-" + std::to_string(i)).ok());
  }
  EXPECT_EQ(heap.CountLive(), 500u);
  EXPECT_GT(heap.pages().size(), 1u);
  // Scan preserves append order.
  int expected = 0;
  heap.Scan([&](const RecordId&, std::string_view bytes) {
    EXPECT_EQ(bytes, "record-" + std::to_string(expected));
    ++expected;
    return true;
  });
  EXPECT_EQ(expected, 500);
}

TEST(HeapFileTest, UpdateRelocatesGrownRecords) {
  PageManager pm;
  HeapFile heap(&pm);
  auto rid = heap.Append("tiny");
  ASSERT_TRUE(rid.ok());
  RecordId id = *rid;
  std::string big(200, 'y');
  ASSERT_TRUE(heap.Update(&id, big).ok());
  EXPECT_EQ(*heap.Read(id), big);
  EXPECT_EQ(heap.CountLive(), 1u);
}

TEST(HeapFileTest, ScanPagesRestrictsToGivenPages) {
  PageManager pm;
  HeapFile heap(&pm);
  std::string filler(1000, 'z');
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(heap.Append(filler).ok());
  ASSERT_GT(heap.pages().size(), 2u);
  uint64_t seen = 0;
  heap.ScanPages({heap.pages()[0]}, [&](const RecordId&, std::string_view) {
    ++seen;
    return true;
  });
  EXPECT_LT(seen, heap.CountLive());
  EXPECT_GT(seen, 0u);
}

TEST(PageManagerTest, CountsLogicalIo) {
  PageManager pm;
  PageId id = pm.Allocate();
  pm.ResetStats();
  pm.ReadPage(id);
  pm.ReadPage(id);
  pm.WritePage(id);
  EXPECT_EQ(pm.stats().page_reads, 2u);
  EXPECT_EQ(pm.stats().page_writes, 1u);
}

TEST(PageManagerTest, PersistAndReload) {
  PageManager pm;
  HeapFile heap(&pm);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Append("persisted-" + std::to_string(i)).ok());
  }
  const std::string path = ::testing::TempDir() + "/archis_pages.bin";
  ASSERT_TRUE(pm.PersistToFile(path).ok());

  PageManager pm2;
  ASSERT_TRUE(pm2.LoadFromFile(path).ok());
  ASSERT_EQ(pm2.page_count(), pm.page_count());
  // Records are byte-identical after reload.
  const Page& p0 = pm2.ReadPage(0);
  EXPECT_EQ(*p0.Read(0), "persisted-0");
}

TEST(PageManagerTest, ClearedHeapPagesAreReusedEmpty) {
  PageManager pm;
  HeapFile dropped(&pm);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(dropped.Append("dropped-" + std::to_string(i)).ok());
  }
  const size_t pages = pm.page_count();
  ASSERT_GT(pages, 1u);
  dropped.Clear();
  EXPECT_TRUE(dropped.pages().empty());
  HeapFile fresh(&pm);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(fresh.Append("fresh-" + std::to_string(i)).ok());
  }
  EXPECT_EQ(pm.page_count(), pages);
  // Only the new records are visible: reused pages start out empty.
  uint64_t seen = 0;
  fresh.Scan([&](const RecordId&, std::string_view bytes) {
    EXPECT_EQ(bytes.substr(0, 6), "fresh-");
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 400u);
}

TEST(PageManagerTest, LoadRejectsMissingFile) {
  PageManager pm;
  EXPECT_EQ(pm.LoadFromFile("/nonexistent/path.bin").code(),
            StatusCode::kIOError);
}

TEST(BPlusTreeTest, InsertAndPointLookup) {
  BPlusTree<int64_t, int64_t> tree;
  for (int64_t i = 0; i < 1000; ++i) tree.Insert(i * 7 % 1000, i);
  EXPECT_EQ(tree.size(), 1000u);
  int found = 0;
  tree.Lookup(21, [&](const int64_t&, const int64_t&) {
    ++found;
    return true;
  });
  EXPECT_EQ(found, 1);
}

TEST(BPlusTreeTest, DuplicateKeys) {
  BPlusTree<int64_t, int64_t> tree;
  for (int64_t i = 0; i < 100; ++i) tree.Insert(42, i);
  std::vector<int64_t> values;
  tree.Lookup(42, [&](const int64_t&, const int64_t& v) {
    values.push_back(v);
    return true;
  });
  EXPECT_EQ(values.size(), 100u);
}

TEST(BPlusTreeTest, RangeScanIsSortedAndBounded) {
  BPlusTree<int64_t, int64_t> tree;
  for (int64_t i = 999; i >= 0; --i) tree.Insert(i, i);
  std::vector<int64_t> keys;
  tree.ScanRange(100, 199, [&](const int64_t& k, const int64_t&) {
    keys.push_back(k);
    return true;
  });
  ASSERT_EQ(keys.size(), 100u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), 100);
  EXPECT_EQ(keys.back(), 199);
}

TEST(BPlusTreeTest, EraseRemovesOnlyMatchingPairs) {
  BPlusTree<int64_t, int64_t> tree;
  tree.Insert(1, 10);
  tree.Insert(1, 11);
  tree.Insert(2, 20);
  EXPECT_EQ(tree.Erase(1, 10), 1u);
  EXPECT_EQ(tree.size(), 2u);
  std::vector<int64_t> values;
  tree.Lookup(1, [&](const int64_t&, const int64_t& v) {
    values.push_back(v);
    return true;
  });
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 11);
}

TEST(BPlusTreeTest, EarlyTerminationStopsScan) {
  BPlusTree<int64_t, int64_t> tree;
  for (int64_t i = 0; i < 500; ++i) tree.Insert(i, i);
  int visited = 0;
  tree.ScanAll([&](const int64_t&, const int64_t&) {
    return ++visited < 10;
  });
  EXPECT_EQ(visited, 10);
}

class BPlusTreeProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BPlusTreeProperty, MatchesMultimapUnderRandomWorkload) {
  std::mt19937 rng(GetParam());
  BPlusTree<int64_t, int64_t> tree;
  std::multimap<int64_t, int64_t> reference;
  for (int op = 0; op < 3000; ++op) {
    int64_t key = static_cast<int64_t>(rng() % 200);
    int64_t value = static_cast<int64_t>(rng() % 1000000);
    if (rng() % 4 != 0 || reference.empty()) {
      tree.Insert(key, value);
      reference.emplace(key, value);
    } else {
      auto it = reference.lower_bound(key);
      if (it != reference.end()) {
        tree.Erase(it->first, it->second);
        reference.erase(it);
      }
    }
  }
  ASSERT_EQ(tree.size(), reference.size());
  // Full-range scan agrees key-by-key (values may reorder within a key).
  std::multimap<int64_t, int64_t> scanned;
  tree.ScanAll([&](const int64_t& k, const int64_t& v) {
    scanned.emplace(k, v);
    return true;
  });
  EXPECT_EQ(scanned, reference);
  // Spot range scans agree in count.
  for (int64_t lo = 0; lo < 200; lo += 37) {
    int64_t hi = lo + 25;
    size_t expect = 0;
    for (auto it = reference.lower_bound(lo);
         it != reference.end() && it->first <= hi; ++it) {
      ++expect;
    }
    size_t got = 0;
    tree.ScanRange(lo, hi, [&](const int64_t&, const int64_t&) {
      ++got;
      return true;
    });
    EXPECT_EQ(got, expect) << "range [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(BPlusTreeTest, AppendBuildsWhatInsertBuilds) {
  BPlusTree<int64_t, int64_t> appended;
  BPlusTree<int64_t, int64_t> inserted;
  for (int64_t i = 0; i < 5000; ++i) {
    appended.Append(i / 3, i);  // sorted, with duplicate runs
    inserted.Insert(i / 3, i);
  }
  EXPECT_EQ(appended.size(), inserted.size());
  EXPECT_EQ(appended.height(), inserted.height());
  std::vector<std::pair<int64_t, int64_t>> a, b;
  appended.ScanAll([&](const int64_t& k, const int64_t& v) {
    a.emplace_back(k, v);
    return true;
  });
  inserted.ScanAll([&](const int64_t& k, const int64_t& v) {
    b.emplace_back(k, v);
    return true;
  });
  EXPECT_EQ(a, b);
  std::vector<int64_t> run;
  appended.Lookup(700, [&](const int64_t&, const int64_t& v) {
    run.push_back(v);
    return true;
  });
  EXPECT_EQ(run, (std::vector<int64_t>{2100, 2101, 2102}));
}

TEST(BPlusTreeTest, FindLastReturnsTheNewestDuplicate) {
  BPlusTree<int64_t, int64_t> tree;
  EXPECT_EQ(tree.FindLast(1), nullptr);
  std::mt19937_64 rng(7);
  std::map<int64_t, int64_t> newest;
  for (int64_t i = 0; i < 20000; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % 300);
    tree.Insert(key, i);
    newest[key] = i;
  }
  for (const auto& [key, value] : newest) {
    const int64_t* found = tree.FindLast(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value) << "key " << key;
  }
  EXPECT_EQ(tree.FindLast(1000), nullptr);
  // Erasing a key's newest entries leaves the next-newest, wherever the
  // run's leaves ended up.
  for (int64_t key = 0; key < 300; key += 7) {
    std::vector<int64_t> values;
    tree.Lookup(key, [&](const int64_t&, const int64_t& v) {
      values.push_back(v);
      return true;
    });
    while (values.size() > 1) {
      tree.Erase(key, values.back());
      values.pop_back();
      const int64_t* found = tree.FindLast(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, values.back());
    }
  }
}

TEST(BPlusTreeTest, CompositeKeysOrderLexicographically) {
  BPlusTree<std::pair<int64_t, int64_t>, int64_t> tree;
  for (int64_t seg = 1; seg <= 3; ++seg) {
    for (int64_t id = 0; id < 50; ++id) tree.Insert({seg, id}, seg * 100 + id);
  }
  // Scan exactly segment 2.
  std::vector<int64_t> hits;
  tree.ScanRange({2, INT64_MIN}, {2, INT64_MAX},
                 [&](const auto&, const int64_t& v) {
    hits.push_back(v);
    return true;
  });
  ASSERT_EQ(hits.size(), 50u);
  EXPECT_EQ(hits.front(), 200);
  EXPECT_EQ(hits.back(), 249);
}

}  // namespace
}  // namespace archis::storage
