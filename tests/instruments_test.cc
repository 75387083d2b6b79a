// The instrument catalog (common/instruments.h) against its two readers:
// DESIGN.md §9.1, whose instrument table is rendered from the catalog, and
// the Prometheus exposition, which must carry exactly the catalog's
// families. Also pins the names and kinds that perfbench reads by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "archis/archis.h"
#include "archis/checkpoint.h"
#include "common/instruments.h"
#include "workload/employee_workload.h"

namespace archis {
namespace {

constexpr char kBegin[] = "<!-- instrument-catalog:begin -->\n";
constexpr char kEnd[] = "<!-- instrument-catalog:end -->";

#define ARCHIS_TEST_NAME(id, name, ...) name,
constexpr const char* kCounterNames[] = {
    ARCHIS_COUNTER_LIST(ARCHIS_TEST_NAME)};
constexpr const char* kHistogramNames[] = {
    ARCHIS_HISTOGRAM_LIST(ARCHIS_TEST_NAME)};
#undef ARCHIS_TEST_NAME

const metrics::StageInfo& StageAt(size_t i) {
  return metrics::Info(static_cast<metrics::StageId>(i));
}

/// The histogram series a stage observes.
std::string StageSeries(const metrics::StageInfo& s) {
  return s.histogram == metrics::kStageSeconds
             ? std::string(kHistogramNames[metrics::kStageSeconds]) +
                   "{stage=\"" + s.name + "\"}"
             : kHistogramNames[s.histogram];
}

/// One exposition series the catalog declares.
struct Series {
  std::string kind;
  std::string name;  ///< with its label set, if any
  std::string help;
};

/// Every series of the catalog, in catalog order: a window is a series
/// of kind "window", and each stage without a histogram of its own adds
/// its archis_stage_seconds series.
std::vector<Series> CatalogSeries() {
  std::vector<Series> out;
#define ARCHIS_TEST_COUNTER(id, name, help) \
  out.push_back({"counter", name, help});
  ARCHIS_COUNTER_LIST(ARCHIS_TEST_COUNTER)
#undef ARCHIS_TEST_COUNTER
#define ARCHIS_TEST_GAUGE(id, name, help) out.push_back({"gauge", name, help});
  ARCHIS_GAUGE_LIST(ARCHIS_TEST_GAUGE)
#undef ARCHIS_TEST_GAUGE
#define ARCHIS_TEST_HISTOGRAM(id, name, help, buckets, window)            \
  for (size_t i = 0; i < metrics::kNumStages; ++i) {                     \
    if (metrics::id == metrics::kStageSeconds &&                         \
        StageAt(i).histogram == metrics::kStageSeconds) {                \
      out.push_back({"histogram", StageSeries(StageAt(i)), help});       \
    }                                                                    \
  }                                                                      \
  if (metrics::id != metrics::kStageSeconds) {                           \
    out.push_back({"histogram", name, help});                            \
  }                                                                      \
  if (*window != '\0') {                                                 \
    out.push_back({"window", window,                                     \
                   std::string("Sliding 1s/10s/60s view of `") + name +  \
                       "`"});                                            \
  }
  ARCHIS_HISTOGRAM_LIST(ARCHIS_TEST_HISTOGRAM)
#undef ARCHIS_TEST_HISTOGRAM
  return out;
}

std::string Family(const std::string& name) {
  return name.substr(0, name.find('{'));
}

std::string Unquoted(std::string text) {
  std::erase(text, '"');
  return text;
}

/// DESIGN.md §9.1's tables: one row per family (a labeled family lists
/// its label sets), then one row per stage.
std::string RenderCatalogMarkdown() {
  std::vector<Series> rows;  // name = family, help = meaning
  std::vector<std::string> labels;
  for (const Series& s : CatalogSeries()) {
    const size_t brace = s.name.find('{');
    const std::string label =
        brace == std::string::npos
            ? "(none)"
            : Unquoted(s.name.substr(brace + 1, s.name.size() - brace - 2));
    auto row = std::find_if(rows.begin(), rows.end(), [&](const Series& r) {
      return r.name == Family(s.name);
    });
    if (row != rows.end()) {
      labels[row - rows.begin()] += ", " + label;
    } else {
      rows.push_back({s.kind, Family(s.name), s.help});
      labels.push_back(label);
    }
  }
  std::string out =
      "| family | kind | labels | meaning |\n|---|---|---|---|\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out += "| `" + rows[i].name + "` | " + rows[i].kind + " | " + labels[i] +
           " | " + rows[i].help + " |\n";
  }
  out +=
      "\nStages (metrics::Stage):\n\n"
      "| stage | histogram | event | counter |\n|---|---|---|---|\n";
  for (size_t i = 0; i < metrics::kNumStages; ++i) {
    const metrics::StageInfo& s = StageAt(i);
    out += "| `" + std::string(s.name) + "` | `" + Unquoted(StageSeries(s)) +
           "` | " +
           (s.event == fr::EventType::kNone
                ? std::string("-")
                : "`" + std::string(fr::EventTypeName(s.event)) + "`") +
           " | " +
           (s.counter == metrics::kNoCounter
                ? std::string("-")
                : "`" + std::string(kCounterNames[s.counter]) + "`") +
           " |\n";
  }
  return out;
}

TEST(InstrumentCatalogTest, DesignTableMatchesCatalog) {
  std::ifstream in(ARCHIS_DESIGN_MD);
  ASSERT_TRUE(in.good()) << "cannot read " << ARCHIS_DESIGN_MD;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string design = buf.str();
  const size_t begin = design.find(kBegin);
  const size_t end = design.find(kEnd);
  ASSERT_NE(begin, std::string::npos) << "DESIGN.md lacks " << kBegin;
  ASSERT_NE(end, std::string::npos) << "DESIGN.md lacks " << kEnd;
  const size_t from = begin + sizeof(kBegin) - 1;
  ASSERT_LE(from, end);
  const std::string expected = RenderCatalogMarkdown();
  EXPECT_EQ(design.substr(from, end - from), expected)
      << "DESIGN.md §9.1 is out of date; the text between the markers "
         "should be:\n"
      << expected;
}

/// The family names (`# TYPE` lines) of an exposition.
std::set<std::string> ExportedFamilies(const std::string& text) {
  std::set<std::string> families;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string rest = line.substr(7);
    families.insert(rest.substr(0, rest.find(' ')));
  }
  return families;
}

TEST(InstrumentCatalogTest, ExpositionCarriesExactlyTheCatalogFamilies) {
  // Drive every layer once: WAL commits, a checkpoint, freezes, a
  // translated, a native and a profiled query.
  const std::string wal =
      std::string(::testing::TempDir()) + "/instruments_test.wal";
  std::remove(wal.c_str());
  {
    core::ArchISOptions options;
    options.wal.path = wal;
    options.segment.compress = true;
    workload::WorkloadConfig config;
    config.initial_employees = 10;
    config.years = 2;
    auto db = core::ArchIS::Open(options, config.start_date);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    workload::EmployeeWorkload wl(config);
    ASSERT_TRUE(wl.Generate(db->get()).ok());
    ASSERT_TRUE((*db)->FreezeAll().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    const std::string q =
        "for $e in doc(\"employees.xml\")/employees/employee return $e/name";
    core::QueryOptions profiled;
    profiled.collect_profile = true;
    ASSERT_TRUE((*db)->Query(q, profiled).ok());
    core::QueryOptions native;
    native.force_path = core::QueryForce::kNative;
    ASSERT_TRUE((*db)->Query(q, native).ok());
  }
  std::remove(wal.c_str());
  std::remove(core::CheckpointPath(wal).c_str());

  std::set<std::string> catalog;
  for (const Series& s : CatalogSeries()) catalog.insert(Family(s.name));
  const std::set<std::string> exported =
      ExportedFamilies(core::ArchIS::DumpMetrics());
  for (const std::string& family : exported) {
    EXPECT_TRUE(catalog.count(family) != 0)
        << "exported family " << family << " is not in the catalog";
  }
  for (const std::string& family : catalog) {
    EXPECT_TRUE(exported.count(family) != 0)
        << "catalog family " << family << " is not exported";
  }
}

TEST(InstrumentCatalogTest, LookupByNameReturnsTheLiveInstrument) {
  metrics::Registry& reg = metrics::Registry::Global();
  // The counters and histograms an external reader (perfbench) looks up
  // by name keep their spelling and kind.
  const std::pair<const char*, metrics::CounterId> counters[] = {
      {"archis_queries_translated_total", metrics::kQueriesTranslated},
      {"archis_queries_native_total", metrics::kQueriesNative},
      {"archis_planner_cache_hits_total", metrics::kPlannerCacheHits},
      {"archis_planner_cache_misses_total", metrics::kPlannerCacheMisses},
      {"archis_page_reads_total", metrics::kPageReads},
      {"archis_server_shed_total", metrics::kServerShed},
      {"archis_segment_freezes_total", metrics::kSegmentFreezes},
      {"archis_checkpoints_total", metrics::kCheckpoints},
      {"archis_block_decompressed_bytes_total",
       metrics::kBlockDecompressedBytes},
  };
  for (const auto& [name, id] : counters) {
    EXPECT_EQ(reg.GetCounter(name, ""), &metrics::Get(id)) << name;
  }
  for (const auto& [name, id] :
       {std::pair{"archis_wal_fsync_seconds", metrics::kWalFsyncSeconds},
        std::pair{"archis_checkpoint_seconds", metrics::kCheckpointSeconds}}) {
    metrics::Histogram* h =
        reg.GetHistogram(name, "", metrics::DefaultLatencyBuckets());
    EXPECT_EQ(h, &metrics::Get(id)) << name;
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->bounds(), metrics::DefaultLatencyBuckets()) << name;
  }
  // A name of another kind is not handed out as this one.
  EXPECT_EQ(reg.GetGauge("archis_page_reads_total", ""), nullptr);
}

TEST(InstrumentCatalogTest, LookupOfAnUncataloguedNameIsRefused) {
  metrics::Registry& reg = metrics::Registry::Global();
  // A misspelled catalog name gets no always-zero instrument of its own.
  EXPECT_EQ(reg.GetCounter("archis_checkpoint_total", ""), nullptr);
  EXPECT_EQ(reg.GetGauge("archis_frozen_segment", ""), nullptr);
  EXPECT_EQ(reg.GetHistogram("archis_wal_fsync_second", "",
                             metrics::DefaultLatencyBuckets()),
            nullptr);
  EXPECT_EQ(ExportedFamilies(core::ArchIS::DumpMetrics())
                .count("archis_checkpoint_total"),
            0u);
  // The catalog spelling still resolves.
  EXPECT_EQ(reg.GetCounter("archis_checkpoints_total", ""),
            &metrics::Get(metrics::kCheckpoints));
}

}  // namespace
}  // namespace archis
