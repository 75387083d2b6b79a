// Shared fixtures for the benchmark suite: the three systems of the paper's
// Section 7 (TaminoLite native XML DB, ArchIS with segment clustering,
// ArchIS variants), the generated temporal employee dataset, and the six
// Table 3 queries as XQuery text; their SQL/XML plans are translated from
// that text (TranslatedPlan).
#ifndef ARCHIS_BENCH_BENCH_COMMON_H_
#define ARCHIS_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>

#include "archis/archis.h"
#include "workload/employee_workload.h"
#include "xml/serializer.h"
#include "xmldb/xml_database.h"

namespace archis::bench {

/// One fully-loaded system-under-test bundle.
struct Systems {
  std::unique_ptr<core::ArchIS> archis;  ///< the configured ArchIS instance
  std::unique_ptr<xmldb::XmlDatabase> tamino;  ///< native XML DB baseline
  workload::WorkloadConfig config;
  int64_t probe_id = 0;
  Date snapshot_date;            ///< mid-history date for Q1/Q2
  TimeInterval slice;            ///< one-year window for Q5
  Date join_after;               ///< start date for Q6's 2-year window
  uint64_t hdoc_bytes = 0;       ///< serialized H-document size
};

/// Configuration for BuildSystems.
struct BuildOptions {
  bool segment_clustering = true;
  bool compress = false;
  double umin = 0.4;
  int scale = 1;                  ///< multiplies the employee population
  bool with_tamino = true;
  bool tamino_compressed = true;
  int years = 17;
  int base_employees = 120;
  uint64_t block_cache_bytes = 16ull << 20;  ///< 0 disables the block cache
};

/// Generates the workload into a fresh ArchIS (and TaminoLite fed from the
/// published H-documents). Deterministic per options.
inline Systems BuildSystems(const BuildOptions& opts) {
  Systems sys;
  core::ArchISOptions aopts;
  aopts.segment.enabled = opts.segment_clustering;
  aopts.segment.compress = opts.compress;
  aopts.segment.umin = opts.umin;
  aopts.segment.block_cache_bytes = opts.block_cache_bytes;
  sys.archis = std::make_unique<core::ArchIS>(aopts,
                                              Date::FromYmd(1985, 1, 1));
  sys.config.initial_employees = opts.base_employees * opts.scale;
  sys.config.years = opts.years;
  workload::EmployeeWorkload wl(sys.config);
  auto stats = wl.Generate(sys.archis.get());
  if (!stats.ok()) {
    fprintf(stderr, "workload generation failed: %s\n",
            stats.status().ToString().c_str());
    abort();
  }
  sys.probe_id = wl.probe_id();
  sys.snapshot_date = Date::FromYmd(1993, 5, 16);  // Table 3's 05/16/1993
  sys.slice = TimeInterval(Date::FromYmd(1993, 5, 16),
                           Date::FromYmd(1994, 5, 16));
  sys.join_after = Date::FromYmd(1998, 4, 1);

  if (opts.with_tamino) {
    sys.tamino = std::make_unique<xmldb::XmlDatabase>(
        opts.tamino_compressed ? xmldb::StorageMode::kCompressed
                               : xmldb::StorageMode::kNative,
        sys.archis->Now());
    for (const char* rel : {"employees", "depts"}) {
      auto doc = sys.archis->PublishHistory(rel);
      if (!doc.ok()) abort();
      if (rel == std::string("employees")) {
        sys.hdoc_bytes = xml::Serialize(*doc).size();
      }
      if (!sys.tamino->PutDocument(std::string(rel) + ".xml", *doc).ok()) {
        abort();
      }
    }
  }
  return sys;
}

// ---------------------------------------------------------------------------
// The six queries of Table 3, as XQuery (native path).
// ---------------------------------------------------------------------------

inline std::string XqQ1(const Systems& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "for $s in doc(\"employees.xml\")/employees/"
                "employee[id=%lld]/salary[tstart(.) <= xs:date(\"%s\") and "
                "tend(.) >= xs:date(\"%s\")] return $s",
                static_cast<long long>(s.probe_id),
                s.snapshot_date.ToString().c_str(),
                s.snapshot_date.ToString().c_str());
  return buf;
}

/// Q2's text: the average salary at snapshot date `at`.
inline std::string XqAvgSalaryAt(Date at) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "avg(doc(\"employees.xml\")/employees/employee/"
                "salary[tstart(.) <= xs:date(\"%s\") and "
                "tend(.) >= xs:date(\"%s\")])",
                at.ToString().c_str(), at.ToString().c_str());
  return buf;
}

inline std::string XqQ2(const Systems& s) {
  return XqAvgSalaryAt(s.snapshot_date);
}

inline std::string XqQ3(const Systems& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "for $s in doc(\"employees.xml\")/employees/"
                "employee[id=%lld]/salary return $s",
                static_cast<long long>(s.probe_id));
  return buf;
}

inline std::string XqQ4(const Systems&) {
  return "count(doc(\"employees.xml\")/employees/employee/salary)";
}

inline std::string XqQ5(const Systems& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "count(for $e in doc(\"employees.xml\")/employees/employee "
                "where exists($e/salary[. > 60000 and "
                "tstart(.) <= xs:date(\"%s\") and "
                "tend(.) >= xs:date(\"%s\")]) return $e)",
                s.slice.tend.ToString().c_str(),
                s.slice.tstart.ToString().c_str());
  return buf;
}

inline std::string XqQ6(const Systems& s) {
  char buf[700];
  std::snprintf(
      buf, sizeof(buf),
      "max(for $e in doc(\"employees.xml\")/employees/employee "
      "for $s1 in $e/salary for $s2 in $e/salary "
      "where tstart($s1) >= xs:date(\"%s\") and "
      "tstart($s2) > tstart($s1) and "
      "tstart($s2) <= tstart($s1) + 730 "
      "return number($s2) - number($s1))",
      s.join_after.ToString().c_str());
  return buf;
}

/// Query descriptors for table-driven benchmarks.
struct BenchQuery {
  const char* name;
  const char* description;
  std::string (*xq)(const Systems&);
};

inline const BenchQuery kTable3Queries[6] = {
    {"Q1", "snapshot, single object", XqQ1},
    {"Q2", "snapshot, avg salary", XqQ2},
    {"Q3", "history, single object", XqQ3},
    {"Q4", "history, count salary versions", XqQ4},
    {"Q5", "temporal slicing, salary > 60K", XqQ5},
    {"Q6", "temporal join, max 2y raise", XqQ6},
};

/// The SQL/XML plan Algorithm 1 translates `xquery` into (what
/// ArchIS::Query runs for the text). Aborts when the text does not
/// translate: every benchmark plan comes from text, none is hand-built.
inline core::SqlXmlPlan TranslatedPlan(const Systems& s,
                                       const std::string& xquery) {
  Result<core::SqlXmlPlan> plan = s.archis->Translate(xquery);
  if (!plan.ok()) {
    fprintf(stderr, "query does not translate: %s\n  %s\n",
            plan.status().ToString().c_str(), xquery.c_str());
    abort();
  }
  return std::move(*plan);
}

inline core::SqlXmlPlan TranslatedPlan(const Systems& s, const BenchQuery& q) {
  return TranslatedPlan(s, q.xq(s));
}

}  // namespace archis::bench

#endif  // ARCHIS_BENCH_BENCH_COMMON_H_
