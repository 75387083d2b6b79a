// archis-stats: opens (or builds) an ArchIS store and dumps its catalog,
// per-query EXPLAIN profiles and the process-wide metrics registry.
//
// Modes:
//   archis-stats --workload [--employees N] [--years N] [--no-compress]
//                [--wal PATH] [--query XQ | --default-query] [--profile]
//     Builds the synthetic employee workload (the paper's evaluation
//     data), freezes it, optionally runs a query (twice: a cold run and a
//     warm run, so cache-hit metrics are meaningful), then prints the
//     catalog and the Prometheus text exposition.
//
//   archis-stats --wal PATH
//     Recovers an existing durable store from its change WAL and dumps
//     catalog + metrics (recovery counters included).
//
//   archis-stats ... --trace PATH
//     Additionally drains the flight recorder into Chrome trace_event
//     JSON at PATH ("-" = stdout, suppressing the human report), loadable
//     in chrome://tracing / Perfetto and checked by tools/trace_check.
//
//   archis-stats ... --watch N
//     After the workload, ticks N times at ~1s intervals, re-running the
//     query each tick and printing the sliding-window metric lines
//     (window="1s|10s|60s" rate/p50/p95/p99) — a poor man's `top` for a
//     live store.
//
// This binary doubles as the metrics smoke-test vehicle for
// scripts/check.sh (see scripts/metrics_smoke.sh).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "archis/archis.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "workload/employee_workload.h"
#include "xml/serializer.h"

namespace {

using archis::Date;
using archis::Status;
using archis::core::ArchIS;
using archis::core::ArchISOptions;
using archis::core::HTableSet;
using archis::core::QueryOptions;
using archis::core::QueryResult;
using archis::core::SegmentedStore;

int Usage() {
  std::fprintf(
      stderr,
      "usage: archis-stats [--workload] [--wal PATH] [--employees N]\n"
      "                    [--years N] [--no-compress] [--query XQ]\n"
      "                    [--default-query] [--profile]\n"
      "                    [--trace PATH|-] [--watch N]\n");
  return 2;
}

// Prints the window="..." gauge lines of the exposition — the sliding
// 1s/10s/60s rate & percentile view archis-stats --watch refreshes.
void PrintWindowedLines(const std::string& exposition) {
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("window=") != std::string::npos) {
      std::printf("%s\n", line.c_str());
    }
  }
}

void PrintStore(const char* label, const SegmentedStore* store) {
  uint64_t frozen_tuples = 0;
  size_t compressed_segs = 0;
  for (const auto& seg : store->segments()) {
    frozen_tuples += seg.tuple_count;
    if (seg.compressed) ++compressed_segs;
  }
  std::printf(
      "    %-12s frozen_segments=%zu (%zu compressed) frozen_tuples=%llu "
      "live_tuples=%llu usefulness=%.3f\n",
      label, store->segments().size(), compressed_segs,
      static_cast<unsigned long long>(frozen_tuples),
      static_cast<unsigned long long>(store->live_total()),
      store->Usefulness());
}

void PrintCatalog(const ArchIS& db) {
  std::printf("== catalog ==\n");
  for (const auto& entry : db.archiver().relations()) {
    std::printf("  relation %s [%s, %s]\n", entry.name.c_str(),
                entry.interval.tstart.ToString().c_str(),
                entry.interval.tend.ToString().c_str());
    auto set = db.archiver().htables(entry.name);
    if (!set.ok()) continue;
    std::printf("    tuples=%llu storage_bytes=%llu\n",
                static_cast<unsigned long long>((*set)->TotalTuples()),
                static_cast<unsigned long long>((*set)->StorageBytes()));
    PrintStore("key", (*set)->key_store());
    for (const std::string& attr : (*set)->attribute_names()) {
      auto store = (*set)->attribute_store(attr);
      if (store.ok()) PrintStore(attr.c_str(), *store);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool workload = false;
  bool profile = false;
  bool compress = true;
  bool default_query = false;
  int employees = 60;
  int years = 8;
  int repeat = 1;
  int watch = 0;
  std::string wal_path;
  std::string query;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      workload = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--no-compress") {
      compress = false;
    } else if (arg == "--default-query") {
      default_query = true;
    } else if (arg == "--wal") {
      const char* v = next();
      if (v == nullptr) return Usage();
      wal_path = v;
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Usage();
      query = v;
    } else if (arg == "--repeat") {
      const char* v = next();
      if (v == nullptr) return Usage();
      repeat = std::atoi(v);
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage();
      trace_path = v;
    } else if (arg == "--watch") {
      const char* v = next();
      if (v == nullptr) return Usage();
      watch = std::atoi(v);
    } else if (arg == "--employees") {
      const char* v = next();
      if (v == nullptr) return Usage();
      employees = std::atoi(v);
    } else if (arg == "--years") {
      const char* v = next();
      if (v == nullptr) return Usage();
      years = std::atoi(v);
    } else {
      return Usage();
    }
  }
  if (!workload && wal_path.empty()) return Usage();
  // Trace-to-stdout must stay pure JSON for tools/trace_check, so the
  // human report is suppressed.
  const bool quiet = trace_path == "-";

  ArchISOptions options;
  options.segment.compress = compress;
  options.wal.path = wal_path;
  archis::workload::WorkloadConfig config;
  config.initial_employees = employees;
  config.years = years;

  auto opened = ArchIS::Open(options, config.start_date);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  ArchIS& db = **opened;

  if (workload) {
    archis::workload::EmployeeWorkload wl(config);
    auto stats = wl.Generate(&db);
    if (!stats.ok()) {
      std::fprintf(stderr, "workload failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf(
          "workload: inserts=%llu updates=%llu deletes=%llu employees=%d\n",
          static_cast<unsigned long long>(stats->inserts),
          static_cast<unsigned long long>(stats->updates),
          static_cast<unsigned long long>(stats->deletes),
          stats->final_employee_count);
    }
    if (Status st = db.FreezeAll(); !st.ok()) {
      std::fprintf(stderr, "freeze failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (default_query && query.empty()) {
    // Mid-history snapshot of every salary: exercises translate, segment
    // scans, zone maps and (on the second run) the block cache.
    const Date mid = Date::FromYmd(1985 + years / 2, 6, 1);
    query = "for $s in doc(\"employees.xml\")/employees/employee/"
            "salary[tstart(.) <= xs:date(\"" +
            mid.ToString() + "\") and tend(.) >= xs:date(\"" +
            mid.ToString() + "\")] return $s";
  }

  if (!query.empty()) {
    // Cold run warms the block cache; the profiled warm run then shows
    // cache hits in its segment-scan spans.
    QueryOptions qopts;
    for (int r = 0; r < repeat; ++r) {
      if (auto cold = db.Query(query, qopts); !cold.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     cold.status().ToString().c_str());
        return 1;
      }
    }
    qopts.collect_profile = true;
    auto warm = db.Query(query, qopts);
    if (!warm.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("== query ==\n%s\npath=%s results=%zu\n", query.c_str(),
                  warm->path == archis::core::QueryPath::kTranslated
                      ? "translated"
                      : "native",
                  warm->xml->children().size());
      if (warm->path == archis::core::QueryPath::kTranslated) {
        if (auto plan = db.Translate(query); plan.ok()) {
          std::printf("sql: %s\n", plan->ToSql().c_str());
        }
      }
      if (profile && warm->profile.has_value()) {
        std::printf("== profile ==\n%s", warm->profile->Render().c_str());
      }
    }
  }

  if (watch > 0) {
    // Live windowed view: re-drive the query each tick so the 1s window
    // has fresh observations, then print the window="..." gauge lines.
    QueryOptions qopts;
    for (int tick = 0; tick < watch; ++tick) {
      if (!query.empty()) {
        if (auto r = db.Query(query, qopts); !r.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
      }
      std::printf("== watch tick %d/%d ==\n", tick + 1, watch);
      PrintWindowedLines(ArchIS::DumpMetrics());
      std::fflush(stdout);
      if (tick + 1 < watch) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
    }
  }

  if (!quiet) {
    PrintCatalog(db);
    std::printf("== metrics ==\n%s", ArchIS::DumpMetrics().c_str());
  }

  if (!trace_path.empty()) {
    const std::string json = ArchIS::DumpTrace();
    if (trace_path == "-") {
      std::fwrite(json.data(), 1, json.size(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::FILE* f = std::fopen(trace_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     trace_path.c_str());
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("trace: %s (%zu bytes)\n", trace_path.c_str(),
                  json.size());
    }
  }
  return 0;
}
