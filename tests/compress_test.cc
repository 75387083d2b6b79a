// Tests for compress/: zlib helpers, BlockZIP (Algorithm 2) and the
// block-pruned BlobStore.
#include <gtest/gtest.h>

#include <random>

#include "compress/blob_store.h"

namespace archis::compress {
namespace {

std::vector<std::string> MakeRecords(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::string> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // H-table-ish records: id, value, two dates — repetitive, compressible.
    records.push_back("id=" + std::to_string(100000 + i) + "|salary=" +
                      std::to_string(30000 + rng() % 60000) +
                      "|tstart=1995-01-01|tend=1996-01-01");
  }
  return records;
}

TEST(ZlibTest, RoundTrip) {
  std::string input(10000, 'a');
  for (size_t i = 0; i < input.size(); i += 7) input[i] = 'b';
  auto z = ZlibCompress(input);
  ASSERT_TRUE(z.ok());
  EXPECT_LT(z->size(), input.size() / 4);
  auto back = ZlibUncompress(*z, input.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
  // Also without a size hint (growth loop).
  auto back2 = ZlibUncompress(*z);
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(*back2, input);
}

TEST(ZlibTest, UncompressRejectsGarbage) {
  EXPECT_FALSE(ZlibUncompress("definitely not zlib data").ok());
}

TEST(BlockZipTest, RoundTripsAllRecords) {
  auto records = MakeRecords(5000, 42);
  auto blocks = BlockZipCompress(records);
  ASSERT_TRUE(blocks.ok());
  ASSERT_GT(blocks->size(), 1u);
  std::vector<std::string> recovered;
  for (const CompressedBlock& b : *blocks) {
    auto part = BlockZipUncompress(b);
    ASSERT_TRUE(part.ok());
    recovered.insert(recovered.end(), part->begin(), part->end());
  }
  EXPECT_EQ(recovered, records);
}

TEST(BlockZipTest, BlocksTargetConfiguredSize) {
  auto records = MakeRecords(5000, 7);
  BlockZipOptions opts;
  opts.block_size = 4000;  // the paper's BLOB size
  auto blocks = BlockZipCompress(records, opts);
  ASSERT_TRUE(blocks.ok());
  // All but possibly the last block stay under the target and reasonably
  // close to it (Algorithm 2's grow/shrink loop).
  for (size_t i = 0; i + 1 < blocks->size(); ++i) {
    EXPECT_LE((*blocks)[i].data.size(), opts.block_size);
    EXPECT_GE((*blocks)[i].data.size(), opts.block_size / 4)
        << "block " << i << " badly underfilled";
  }
  // Ranges partition the record space.
  uint64_t next = 0;
  for (const CompressedBlock& b : *blocks) {
    EXPECT_EQ(b.first_record, next);
    next = b.last_record + 1;
  }
  EXPECT_EQ(next, records.size());
}

TEST(BlockZipTest, CompressionActuallyShrinks) {
  auto records = MakeRecords(5000, 3);
  uint64_t raw = 0;
  for (const auto& r : records) raw += r.size();
  auto blocks = BlockZipCompress(records);
  ASSERT_TRUE(blocks.ok());
  EXPECT_LT(TotalCompressedBytes(*blocks), raw / 3);
}

TEST(BlockZipTest, HandlesEmptyAndSingleRecord) {
  auto empty = BlockZipCompress({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto one = BlockZipCompress({"lonely"});
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  auto back = BlockZipUncompress((*one)[0]);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[0], "lonely");
}

TEST(BlockZipTest, OversizedRecordGetsOwnBlock) {
  std::mt19937 rng(5);
  std::string incompressible(20000, '\0');
  for (char& c : incompressible) c = static_cast<char>(rng());
  auto blocks = BlockZipCompress({"small", incompressible, "tiny"});
  ASSERT_TRUE(blocks.ok());
  std::vector<std::string> recovered;
  for (const auto& b : *blocks) {
    auto part = BlockZipUncompress(b);
    ASSERT_TRUE(part.ok());
    recovered.insert(recovered.end(), part->begin(), part->end());
  }
  ASSERT_EQ(recovered.size(), 3u);
  EXPECT_EQ(recovered[1], incompressible);
}

class BlobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::pair<int64_t, std::string>> records;
    for (int64_t sid = 0; sid < 4000; ++sid) {
      records.emplace_back(sid, "record-for-sid-" + std::to_string(sid) +
                                    "-with-some-padding-xxxxxxxxxxxx");
    }
    ASSERT_TRUE(store_.Build(records).ok());
    ASSERT_GT(store_.block_count(), 3u);
  }

  BlobStore store_;
};

TEST_F(BlobStoreTest, RangeScanReturnsExactRows) {
  std::vector<int64_t> sids;
  ASSERT_TRUE(store_.ScanRange(100, 110, [&](int64_t sid,
                                             std::string_view rec) {
    sids.push_back(sid);
    EXPECT_EQ(rec, "record-for-sid-" + std::to_string(sid) +
                       "-with-some-padding-xxxxxxxxxxxx");
    return true;
  }).ok());
  ASSERT_EQ(sids.size(), 11u);
  EXPECT_EQ(sids.front(), 100);
  EXPECT_EQ(sids.back(), 110);
}

TEST_F(BlobStoreTest, NarrowRangeDecompressesFewBlocks) {
  // The point of BlockZIP (Section 8.1): "if we know which blocks to
  // access, we only need to read and uncompress those specific blocks".
  BlobReadStats stats;
  ASSERT_TRUE(store_.ScanRange(2000, 2001,
                               [](int64_t, std::string_view) {
    return true;
  }, &stats).ok());
  EXPECT_LE(stats.blocks_decompressed, 2u);
  EXPECT_EQ(stats.blocks_scanned, store_.block_count());

  BlobReadStats full;
  ASSERT_TRUE(store_.ScanAll([](int64_t, std::string_view) {
    return true;
  }, &full).ok());
  EXPECT_EQ(full.blocks_decompressed, store_.block_count());
  EXPECT_GT(full.blocks_decompressed, stats.blocks_decompressed * 2);
}

TEST_F(BlobStoreTest, MetadataRangesAreOrderedAndTight) {
  int64_t prev_end = -1;
  for (const BlobBlockMeta& m : store_.metadata()) {
    EXPECT_GT(m.start_sid, prev_end);
    EXPECT_LE(m.start_sid, m.end_sid);
    prev_end = m.end_sid;
  }
}

TEST(BlobStoreValidation, RejectsUnsortedInput) {
  BlobStore store;
  EXPECT_EQ(store.Build({{5, "a"}, {3, "b"}}).code(),
            StatusCode::kInvalidArgument);
}

TEST(BlobStoreValidation, DuplicateSidsAllowed) {
  // Versions of the same id share a sid inside one segment.
  BlobStore store;
  ASSERT_TRUE(store.Build({{1, "v1"}, {1, "v2"}, {2, "v3"}}).ok());
  int hits = 0;
  ASSERT_TRUE(store.ScanRange(1, 1, [&](int64_t, std::string_view) {
    ++hits;
    return true;
  }).ok());
  EXPECT_EQ(hits, 2);
}

TEST(BlobStoreValidation, CorruptedBlockSurfacesAsError) {
  // Failure injection: flip bytes inside a compressed block and verify the
  // reader reports Corruption instead of returning garbage.
  auto blocks = BlockZipCompress({"alpha", "beta", "gamma", "delta"});
  ASSERT_TRUE(blocks.ok());
  ASSERT_FALSE(blocks->empty());
  CompressedBlock mangled = (*blocks)[0];
  for (size_t i = 4; i < mangled.data.size(); i += 3) {
    mangled.data[i] = static_cast<char>(~mangled.data[i]);
  }
  auto result = BlockZipUncompress(mangled);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(BlobStoreValidation, TruncatedBlockSurfacesAsError) {
  auto blocks = BlockZipCompress({"some", "records", "here"});
  ASSERT_TRUE(blocks.ok());
  CompressedBlock truncated = (*blocks)[0];
  truncated.data.resize(truncated.data.size() / 2);
  EXPECT_FALSE(BlockZipUncompress(truncated).ok());
}

TEST(BlobStoreValidation, CompressionRatioReported) {
  auto records = MakeRecords(3000, 11);
  std::vector<std::pair<int64_t, std::string>> input;
  int64_t sid = 0;
  for (auto& r : records) input.emplace_back(sid++, std::move(r));
  BlobStore store;
  ASSERT_TRUE(store.Build(input).ok());
  EXPECT_GT(store.RawBytes(), store.CompressedBytes() * 2);
}

}  // namespace
}  // namespace archis::compress
