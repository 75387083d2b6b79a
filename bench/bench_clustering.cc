// Figure 9: query performance with vs without segment-based clustering on
// the same H-table data, plus Section 7.1's "snapshot on history vs current
// database" comparison (~27% slower in the paper).
//
// Paper shape: clustering speeds up snapshot (Q2 ~5.7x) and slicing (Q5
// ~5.5x) and the join (Q6 ~1.7x); single-object queries (Q1/Q3) are close
// (the id index dominates); the full-history scan Q4 is *slower* with
// clustering because of segment redundancy.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace archis::bench {
namespace {

Systems& Clustered() {
  static Systems sys = BuildSystems(BuildOptions{});
  return sys;
}

Systems& Unclustered() {
  static Systems sys = [] {
    BuildOptions o;
    o.segment_clustering = false;
    o.with_tamino = false;
    return BuildSystems(o);
  }();
  return sys;
}

void BM_Clustered(benchmark::State& state) {
  Systems& sys = Clustered();
  const BenchQuery& q = kTable3Queries[state.range(0)];
  core::SqlXmlPlan plan = TranslatedPlan(sys, q);
  for (auto _ : state) {
    auto r = sys.archis->Execute(plan);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(q.description);
}

void BM_Unclustered(benchmark::State& state) {
  Systems& sys = Unclustered();
  const BenchQuery& q = kTable3Queries[state.range(0)];
  core::SqlXmlPlan plan = TranslatedPlan(sys, q);
  for (auto _ : state) {
    auto r = sys.archis->Execute(plan);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(q.description);
}

// Section 7.1: snapshot at `now` served from the H-tables vs scanning the
// current database directly. The paper reports ~27% overhead.
void BM_SnapshotOnHistory(benchmark::State& state) {
  // The paper's methodology: run Q2 (avg salary) as a snapshot at the
  // current date against the salary H-table, vs directly on the current
  // table below.
  Systems& sys = Clustered();
  core::SqlXmlPlan plan =
      TranslatedPlan(sys, XqAvgSalaryAt(sys.archis->Now()));
  for (auto _ : state) {
    auto r = sys.archis->Execute(plan);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("avg current salary via salary H-table");
}

void BM_SnapshotOnCurrentDb(benchmark::State& state) {
  Systems& sys = Clustered();
  auto table = sys.archis->current_db().catalog().GetTable("employees");
  if (!table.ok()) {
    state.SkipWithError("no current table");
    return;
  }
  double avg = 0;
  for (auto _ : state) {
    double sum = 0;
    uint64_t n = 0;
    Status st =
        (*table)->Scan([&](const storage::RecordId&, const minirel::Tuple& t) {
          sum += static_cast<double>(t.at(2).AsInt());
          ++n;
          return true;
        });
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    avg = n == 0 ? 0 : sum / static_cast<double>(n);
    benchmark::DoNotOptimize(avg);
  }
  state.counters["avg_salary"] = avg;
  state.SetLabel("avg current salary via current table");
}

BENCHMARK(BM_Clustered)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Unclustered)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotOnHistory)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotOnCurrentDb)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace archis::bench

int main(int argc, char** argv) {
  printf("== Figure 9: segment-based clustering on vs off (same data) ==\n");
  printf("Paper shape: snapshot Q2 ~5.7x and slicing Q5 ~5.5x faster with\n"
         "clustering; Q1/Q3 close (id index); Q4 slower with clustering\n"
         "(segment redundancy); join Q6 ~1.7x faster.\n");
  printf("Also Section 7.1: snapshot via H-tables vs current DB (~27%% "
         "overhead in the paper).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
