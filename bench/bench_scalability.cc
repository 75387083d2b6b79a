// Figure 10: scalability — query time on a 7x larger dataset versus the
// base dataset (paper: 334 MB -> 2.28 GB).
//
// Paper shape: most queries grow roughly linearly with data size; the
// single-object queries Q1/Q3 grow much more slowly (index/pruned access).
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace archis::bench {
namespace {

Systems& AtScale(int scale) {
  static Systems scale1 = [] {
    BuildOptions o;
    o.with_tamino = false;
    o.scale = 1;
    return BuildSystems(o);
  }();
  static Systems scale7 = [] {
    BuildOptions o;
    o.with_tamino = false;
    o.scale = 7;
    return BuildSystems(o);
  }();
  return scale == 1 ? scale1 : scale7;
}

void BM_Scale(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  Systems& sys = AtScale(scale);
  const BenchQuery& q = kTable3Queries[state.range(1)];
  core::SqlXmlPlan plan = TranslatedPlan(sys, q);
  core::PlanStats stats;
  for (auto _ : state) {
    stats = core::PlanStats();
    auto r = sys.archis->Execute(plan, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["scale"] = scale;
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.counters["history_bytes"] =
      static_cast<double>(sys.archis->HistoryStorageBytes());
  state.SetLabel(q.description);
}

void RegisterAll() {
  for (int scale : {1, 7}) {
    for (int q = 0; q < 6; ++q) {
      benchmark::RegisterBenchmark("BM_Scale", BM_Scale)
          ->Args({scale, q})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace archis::bench

int main(int argc, char** argv) {
  printf("== Figure 10: scalability (1x vs 7x dataset) ==\n");
  printf("Paper shape: Q2/Q4/Q5/Q6 scale ~linearly in data size; the\n"
         "single-object Q1/Q3 grow much less.\n\n");
  archis::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
