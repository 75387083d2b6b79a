// Observability overhead: the metrics layer must be invisible on the hot
// query path. BM_MetricsOverhead runs the Q2 cached-snapshot workload (the
// same shape as BM_CachedSnapshot in bench_queries) with the registry
// globally disabled (Arg 0) and enabled (Arg 1); the acceptance bar is
// an enabled/disabled delta under 2%. The micro-benchmarks price the
// individual instruments so a regression is attributable.
//
// The flight recorder is always on in production, so it carries its own
// acceptance bar: BM_FlightRecorderOverhead is the BM_CommitThroughput
// shape (8 writers, disjoint keys, group-committed WAL) with the recorder
// disabled (Arg 0) and enabled (Arg 1); the enabled/disabled delta must
// stay under 1%. BM_EventAppend prices one seqlock ring append.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "archis/checkpoint.h"
#include "bench_common.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"

namespace archis::bench {
namespace {

Systems& CachedSystems() {
  static Systems sys = [] {
    BuildOptions opts;
    opts.compress = true;
    opts.block_cache_bytes = 16ull << 20;
    opts.with_tamino = false;
    return BuildSystems(opts);
  }();
  return sys;
}

// The ablation lever: Arg(0) freezes every instrument (Counter::Inc is a
// single relaxed load), Arg(1) is production configuration.
void BM_MetricsOverhead(benchmark::State& state) {
  Systems& sys = CachedSystems();
  core::SqlXmlPlan plan = TranslatedPlan(sys, kTable3Queries[1]);
  core::PlanStats stats;
  metrics::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    stats = core::PlanStats();
    auto r = sys.archis->Execute(plan, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  metrics::SetEnabled(true);
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.SetLabel(state.range(0) != 0 ? "Q2 snapshot, metrics enabled"
                                     : "Q2 snapshot, metrics disabled");
}

void BM_CounterInc(benchmark::State& state) {
  static metrics::Counter counter;
  metrics::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    counter.Inc();
  }
  metrics::SetEnabled(true);
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}

void BM_HistogramObserve(benchmark::State& state) {
  static metrics::Histogram hist(metrics::DefaultLatencyBuckets());
  double v = 1e-6;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1.0 ? v * 1.7 : 1e-6;  // sweep the bucket ladder
  }
}

void BM_ProfiledQuery(benchmark::State& state) {
  // Prices QueryOptions::collect_profile end to end (span allocation +
  // tree build + TakeProfile) against the same query unprofiled.
  Systems& sys = CachedSystems();
  const std::string xq = XqQ2(sys);
  core::QueryOptions opts;
  opts.collect_profile = state.range(0) != 0;
  for (auto _ : state) {
    auto r = sys.archis->Query(xq, opts);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(opts.collect_profile ? "collect_profile=true"
                                      : "collect_profile=false");
}

void BM_EventAppend(benchmark::State& state) {
  // One seqlock ring append: claim-ring + timestamp + 5 relaxed stores +
  // the odd/even sequence bracket. This is the unit cost every
  // instrumented code path pays.
  fr::SetEnabled(state.range(0) != 0);
  uint64_t i = 0;
  for (auto _ : state) {
    fr::Record(fr::EventType::kWalAppend, i, i * 2);
    ++i;
  }
  fr::SetEnabled(true);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) != 0 ? "recorder enabled"
                                     : "recorder disabled");
}

// BM_CommitThroughput's shape (bench_concurrency.cc) with the flight
// recorder as the ablation lever: 8 writer threads, each committing
// single-key transactions against its own key through the shared
// group-committed WAL. Acceptance: Arg(1) within 1% of Arg(0).
void BM_FlightRecorderOverhead(benchmark::State& state) {
  static std::unique_ptr<core::ArchIS> db;
  static std::string wal_path;
  if (state.thread_index() == 0) {
    wal_path = (std::filesystem::temp_directory_path() /
                "bench_observability_fr.wal")
                   .string();
    std::remove(wal_path.c_str());
    std::remove(core::CheckpointPath(wal_path).c_str());
    std::remove(core::CheckpointPrevPath(wal_path).c_str());
    std::remove(core::CheckpointTmpPath(wal_path).c_str());
    core::ArchISOptions opts;
    opts.wal.path = wal_path;
    opts.wal.checkpoint_base_every = 8;
    auto opened = core::ArchIS::Open(opts, Date::FromYmd(2000, 1, 1));
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    db = std::move(*opened);
    core::RelationSpec spec;
    spec.name = "counters";
    spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                   {"count", minirel::DataType::kInt64}});
    spec.key_columns = {"id"};
    spec.doc_name = "counters.xml";
    if (!db->CreateRelation(spec).ok()) {
      state.SkipWithError("create relation");
      return;
    }
    for (int64_t id = 1; id <= 8; ++id) {
      if (!db->Insert("counters", minirel::Tuple{minirel::Value(id),
                                                 minirel::Value(int64_t{0})})
               .ok()) {
        state.SkipWithError("seed row");
        return;
      }
    }
    fr::SetEnabled(state.range(0) != 0);
  }
  int64_t count = 0;
  const int64_t id = state.thread_index() + 1;
  for (auto _ : state) {
    auto begun = db->Begin();
    if (!begun.ok()) {
      state.SkipWithError(begun.status().ToString().c_str());
      return;
    }
    core::Transaction txn = std::move(*begun);
    if (!txn.Update("counters", {minirel::Value(id)},
                    minirel::Tuple{minirel::Value(id),
                                   minirel::Value(++count)})
             .ok()) {
      state.SkipWithError("update");
      return;
    }
    Status st = txn.Commit();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    fr::SetEnabled(true);
    db.reset();
    std::remove(wal_path.c_str());
    std::remove(core::CheckpointPath(wal_path).c_str());
    std::remove(core::CheckpointPrevPath(wal_path).c_str());
    std::remove(core::CheckpointTmpPath(wal_path).c_str());
  }
  state.SetLabel(state.range(0) != 0
                     ? "8-writer commits, recorder enabled"
                     : "8-writer commits, recorder disabled");
}

BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProfiledQuery)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CounterInc)->Arg(0)->Arg(1);
BENCHMARK(BM_HistogramObserve);
BENCHMARK(BM_EventAppend)->Arg(0)->Arg(1);
BENCHMARK(BM_FlightRecorderOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace archis::bench

int main(int argc, char** argv) {
  printf("== Observability overhead: metrics/trace cost on the Q2 hot path "
         "==\n");
  printf("Acceptance: BM_MetricsOverhead enabled vs disabled within 2%%;\n"
         "BM_FlightRecorderOverhead enabled vs disabled within 1%%.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
