// Figure 8 + Table 3: the six temporal queries on the native XML database
// (TaminoLite, compressed documents — Tamino's default) versus ArchIS with
// segment-based clustering on the RDBMS. BM_ArchIS executes the plan each
// text translates into; BM_EndToEnd takes the text itself through
// ArchIS::Query and serializes the answer.
//
// Paper shape to reproduce: the RDBMS path wins every query; snapshot (Q2)
// by ~2 orders of magnitude, slicing (Q5) by ~66x, history (Q4) by ~4x,
// temporal join (Q6) by ~35x. Absolute times differ (their testbed was
// disk-bound); the ordering and rough factors are the claim under test.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

namespace archis::bench {
namespace {

Systems& SegSystems() {
  static Systems sys = BuildSystems(BuildOptions{});
  return sys;
}

void BM_Tamino(benchmark::State& state) {
  Systems& sys = SegSystems();
  const BenchQuery& q = kTable3Queries[state.range(0)];
  std::string xq = q.xq(sys);
  size_t items = 0;
  for (auto _ : state) {
    auto r = sys.tamino->Query(xq);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    items = r.ok() ? r->size() : 0;
    benchmark::DoNotOptimize(items);
  }
  state.counters["result_items"] = static_cast<double>(items);
  state.SetLabel(q.description);
}

void BM_ArchIS(benchmark::State& state) {
  Systems& sys = SegSystems();
  const BenchQuery& q = kTable3Queries[state.range(0)];
  core::SqlXmlPlan plan = TranslatedPlan(sys, q);
  core::PlanStats stats;
  for (auto _ : state) {
    stats = core::PlanStats();
    auto r = sys.archis->Execute(plan, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.counters["segments_scanned"] =
      static_cast<double>(stats.segments_scanned);
  state.counters["blocks_pruned_by_time"] =
      static_cast<double>(stats.blocks_pruned_by_time);
  state.counters["block_cache_hits"] =
      static_cast<double>(stats.block_cache_hits);
  state.SetLabel(q.description);
}

// Text in, bytes out: ArchIS::Query on the Table-3 XQuery text (parse,
// translate, plan-cache lookup, execute) plus serializing the answer —
// what a client of the library pays per query. The path counter must read
// 1 (translated) for all six texts.
void BM_EndToEnd(benchmark::State& state) {
  Systems& sys = SegSystems();
  const BenchQuery& q = kTable3Queries[state.range(0)];
  const std::string xq = q.xq(sys);
  core::QueryPath path = core::QueryPath::kNativeFallback;
  size_t bytes = 0;
  uint64_t rows_scanned = 0;
  for (auto _ : state) {
    auto r = sys.archis->Query(xq);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    const std::string out = xml::Serialize(r->xml);
    bytes = out.size();
    path = r->path;
    rows_scanned = r->stats.rows_scanned;
    benchmark::DoNotOptimize(out);
  }
  state.counters["translated"] =
      path == core::QueryPath::kTranslated ? 1.0 : 0.0;
  state.counters["result_bytes"] = static_cast<double>(bytes);
  state.counters["rows_scanned"] = static_cast<double>(rows_scanned);
  state.SetLabel(q.description);
}

// Ablation: the same plans executed against an un-indexed full-history scan
// is covered by bench_clustering; here we add the id-sorted merge join vs
// hash join ablation on a two-variable query (salary joined with title).
void BM_JoinAblation(benchmark::State& state) {
  Systems& sys = SegSystems();
  const bool merge = state.range(0) == 0;
  core::SqlXmlPlan plan;
  core::PlanVar a, b;
  a.relation = "employees";
  a.attribute = "salary";
  b.relation = "employees";
  b.attribute = "title";
  plan.vars = {a, b};
  plan.join_on_id = merge;
  if (!merge) {
    // Emulate the value-join fallback: join via a cross condition instead
    // of the sorted id merge (quadratic pairing within the cross product).
    core::CrossCond cond;
    cond.kind = core::CrossCond::Kind::kCompare;
    cond.lhs = {0, core::HCol::kId};
    cond.op = minirel::CompareOp::kEq;
    cond.rhs = {1, core::HCol::kId};
    plan.cross_conds.push_back(cond);
  }
  plan.aggregate = core::PlanAggregate::kCount;
  for (auto _ : state) {
    auto r = sys.archis->Execute(plan);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(merge ? "id-sorted merge join" : "cross-product join");
}

// Ablation: the decompressed-block LRU cache on a repeated snapshot query
// (Q2). Iterations after the first run warm; with the cache off every
// iteration re-inflates the covering segment's blocks.
Systems& CacheSystems(bool cached) {
  static std::map<bool, std::unique_ptr<Systems>> instances;
  std::unique_ptr<Systems>& slot = instances[cached];
  if (slot == nullptr) {
    BuildOptions opts;
    opts.compress = true;
    opts.block_cache_bytes = cached ? (16ull << 20) : 0;
    opts.with_tamino = false;
    slot = std::make_unique<Systems>(BuildSystems(opts));
  }
  return *slot;
}

void BM_CachedSnapshot(benchmark::State& state) {
  Systems& sys = CacheSystems(state.range(0) != 0);
  core::SqlXmlPlan plan = TranslatedPlan(sys, kTable3Queries[1]);
  core::PlanStats stats;
  for (auto _ : state) {
    stats = core::PlanStats();
    auto r = sys.archis->Execute(plan, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["blocks_decompressed"] =
      static_cast<double>(stats.blocks_decompressed);
  state.counters["block_cache_hits"] =
      static_cast<double>(stats.block_cache_hits);
  state.SetLabel(state.range(0) != 0 ? "Q2 snapshot, 16MiB block cache"
                                     : "Q2 snapshot, cache off");
}

BENCHMARK(BM_Tamino)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArchIS)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEnd)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinAblation)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedSnapshot)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace archis::bench

int main(int argc, char** argv) {
  printf("== Figure 8 / Table 3: query performance, native XML DB vs "
         "ArchIS(segmented) ==\n");
  printf("Paper shape: ArchIS wins all six; Q2 ~100x, Q5 ~66x, Q4 ~4x, "
         "Q6 ~35x.\n");
  printf("Args 0..5 map to Table 3 queries Q1..Q6.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
