// Golden digests of the archived history the employee workload generates.
//
// The write path (statement lookup, commit apply, version close, append and
// freeze) may change how it gets there, never what it archives: the same
// H-documents byte for byte, the same segment tables, tuple counts,
// BlockZIP output and storage footprint. Each digest is FNV-1a over a
// canonical rendering of all of that; the expected values were recorded
// from a build whose write path decoded, re-encoded and re-indexed every
// closed version, so a change to any archived byte fails here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "workload/employee_workload.h"
#include "xml/serializer.h"

namespace archis::workload {
namespace {

using core::ArchIS;
using core::ArchISOptions;
using core::SegmentedStore;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void AppendNumber(std::string* out, const char* label, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, label, v);
  out->append(buf);
}

/// Segment table, tuple count and compressed size of one store.
void DescribeStore(const SegmentedStore& store, std::string* out) {
  out->append("\nstore ");
  out->append(store.name());
  AppendNumber(out, "total_tuples", store.TotalTuples());
  AppendNumber(out, "live_total", store.live_total());
  AppendNumber(out, "storage_bytes", store.StorageBytes());
  for (size_t i = 0; i < store.segments().size(); ++i) {
    const core::SegmentInfo& seg = store.segments()[i];
    out->append("\n  segment");
    AppendNumber(out, "segno", static_cast<uint64_t>(seg.segno));
    AppendNumber(out, "segstart",
                 static_cast<uint64_t>(seg.interval.tstart.days()));
    AppendNumber(out, "segend",
                 static_cast<uint64_t>(seg.interval.tend.days()));
    AppendNumber(out, "tuple_count", seg.tuple_count);
    AppendNumber(out, "distinct_ids", seg.distinct_ids);
    AppendNumber(out, "blocks", seg.blocks);
    const core::CompressedSegment* compressed = store.compressed_segment(i);
    AppendNumber(out, "compressed_bytes",
                 compressed == nullptr ? 0 : compressed->CompressedBytes());
  }
}

std::string GenerateAndDescribe(int employees, double umin, bool compress) {
  ArchISOptions opts;
  opts.segment.umin = umin;
  opts.segment.compress = compress;
  ArchIS db(opts, Date::FromYmd(1985, 1, 1));
  WorkloadConfig cfg;
  cfg.initial_employees = employees;
  cfg.years = 17;
  EmployeeWorkload wl(cfg);
  Result<WorkloadStats> stats = wl.Generate(&db);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  std::string description;
  for (const char* rel : {"employees", "depts"}) {
    Result<xml::XmlNodePtr> doc = db.PublishHistory(rel);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    if (doc.ok()) description += xml::Serialize(*doc);
    Result<core::HTableSet*> set = db.archiver().htables(rel);
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    if (!set.ok()) continue;
    AppendNumber(&description, "set_total_tuples", (*set)->TotalTuples());
    DescribeStore(*(*set)->key_store(), &description);
    for (const std::string& attr : (*set)->attribute_names()) {
      Result<SegmentedStore*> store = (*set)->attribute_store(attr);
      EXPECT_TRUE(store.ok()) << store.status().ToString();
      if (!store.ok()) continue;
      DescribeStore(**store, &description);
    }
  }
  AppendNumber(&description, "history_storage_bytes",
               db.HistoryStorageBytes());
  return description;
}

TEST(HistoryDigestTest, PaperScaleUncompressedIsUnchanged) {
  const std::string description =
      GenerateAndDescribe(120, 0.4, /*compress=*/false);
  EXPECT_EQ(Fnv1a(description), 0x38d7cec002abcea1ull)
      << "archived history changed; size " << description.size();
}

TEST(HistoryDigestTest, EightTimesScaleBlockZipIsUnchanged) {
  const std::string description =
      GenerateAndDescribe(8 * 120, 0.2, /*compress=*/true);
  EXPECT_EQ(Fnv1a(description), 0xbe77880b590d0e34ull)
      << "archived history changed; size " << description.size();
}

}  // namespace
}  // namespace archis::workload
