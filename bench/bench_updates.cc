// Section 8.4: update performance — a single current-record update, a
// simulated daily update batch, and the (occasional) segment-archiving
// event, on ArchIS versus the native XML database's document-level update.
//
// Paper shape: single update 0.29s on ArchIS vs 1.2s on Tamino; daily
// batch 1.52s vs 15s; the freeze (archiving a full segment) is much more
// expensive but happens once per segment.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "archis/checkpoint.h"
#include "bench_common.h"

namespace archis::bench {
namespace {

// A fresh, smaller system per measurement: updates mutate state, so we
// rebuild outside the timed region.
BuildOptions SmallOpts(bool with_tamino) {
  BuildOptions o;
  o.base_employees = 60;
  o.years = 8;
  o.with_tamino = with_tamino;
  return o;
}

void BM_ArchISSingleUpdate(benchmark::State& state) {
  static Systems sys = BuildSystems(SmallOpts(false));
  int64_t salary = 90000;
  for (auto _ : state) {
    state.PauseTiming();
    auto now = sys.archis->Now().AddDays(1);
    if (!sys.archis->AdvanceClock(now).ok()) {
      state.SkipWithError("clock");
      return;
    }
    auto snap = sys.archis->Snapshot("employees", now);
    minirel::Tuple row = (*snap)[0];
    row.at(2) = minirel::Value(++salary);
    state.ResumeTiming();
    Status st = sys.archis->Update("employees", {row.at(0)}, row);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("one salary update, trigger-captured");
}

void BM_TaminoSingleUpdate(benchmark::State& state) {
  // Document-level update: materialise, mutate, re-store (what a native XML
  // DB without node-level updates does).
  static Systems sys = BuildSystems(SmallOpts(true));
  int64_t salary = 90000;
  for (auto _ : state) {
    Status st = sys.tamino->UpdateDocument(
        "employees.xml", [&](const xml::XmlNodePtr& root) -> Status {
          auto emp = root->ChildElements().front();
          auto salaries = emp->ChildrenNamed("salary");
          if (salaries.empty()) return Status::NotFound("no salary");
          salaries.back()->SetAttr("tend", "2002-12-31");
          auto fresh = xml::XmlNode::Element("salary");
          fresh->SetAttr("tstart", "2003-01-01");
          fresh->SetAttr("tend", "9999-12-31");
          fresh->AppendText(std::to_string(++salary));
          emp->AppendChild(std::move(fresh));
          return Status::OK();
        });
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("document-level update on native XML DB");
}

void BM_ArchISDailyUpdate(benchmark::State& state) {
  // A private system whose workload driver retains the employee state, so
  // SimulateDay can keep appending days.
  static core::ArchIS db(core::ArchISOptions{}, Date::FromYmd(1985, 1, 1));
  static workload::EmployeeWorkload driver([] {
    workload::WorkloadConfig cfg;
    cfg.initial_employees = 60;
    cfg.years = 8;
    return cfg;
  }());
  static bool primed = driver.Generate(&db).ok();
  if (!primed) {
    state.SkipWithError("prime failed");
    return;
  }
  uint64_t updates = 0;
  for (auto _ : state) {
    auto stats = driver.SimulateDay(&db);
    if (!stats.ok()) state.SkipWithError(stats.status().ToString().c_str());
    updates += stats.ok() ? stats->updates : 0;
  }
  state.counters["updates_applied"] = static_cast<double>(updates);
  state.SetLabel("one simulated day of updates");
}

void BM_SegmentFreeze(benchmark::State& state) {
  // Cost of the once-per-segment archiving event (optionally compressed).
  const bool compress = state.range(0) == 1;
  for (auto _ : state) {
    state.PauseTiming();
    BuildOptions o = SmallOpts(false);
    o.compress = compress;
    Systems sys = BuildSystems(o);
    state.ResumeTiming();
    Status st = sys.archis->FreezeAll();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel(compress ? "freeze all live segments + BlockZIP"
                          : "freeze all live segments");
}

void BM_CommitBatch(benchmark::State& state) {
  // The transactional write path end to end: each iteration commits one
  // explicit transaction of `batch` updates through the WAL (append +
  // fsync + archive), so the group of sizes shows how commit cost
  // amortises over the batch.
  const int batch = static_cast<int>(state.range(0));
  const std::string wal_path =
      (std::filesystem::temp_directory_path() / "bench_commit.wal").string();
  std::remove(wal_path.c_str());
  core::ArchISOptions opts;
  opts.wal.path = wal_path;
  auto db = core::ArchIS::Open(opts, Date::FromYmd(2000, 1, 1));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  constexpr int kRows = 64;
  core::RelationSpec spec;
  spec.name = "employees";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"name", minirel::DataType::kString},
                                 {"salary", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "employees.xml";
  if (!(*db)->CreateRelation(spec).ok()) {
    state.SkipWithError("create");
    return;
  }
  for (int64_t id = 1; id <= kRows; ++id) {
    minirel::Tuple row{minirel::Value(id), minirel::Value("emp"),
                       minirel::Value(int64_t{50000})};
    if (!(*db)->Insert("employees", row).ok()) {
      state.SkipWithError("prime");
      return;
    }
  }
  int64_t salary = 50000;
  for (auto _ : state) {
    auto begun = (*db)->Begin();
    if (!begun.ok()) {
      state.SkipWithError(begun.status().ToString().c_str());
      return;
    }
    core::Transaction txn = std::move(*begun);
    for (int i = 0; i < batch; ++i) {
      const int64_t id = i % kRows + 1;
      minirel::Tuple row{minirel::Value(id), minirel::Value("emp"),
                         minirel::Value(++salary)};
      if (!txn.Update("employees", {minirel::Value(id)}, row).ok()) {
        state.SkipWithError("update");
        return;
      }
    }
    Status st = txn.Commit();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["wal_bytes"] =
      static_cast<double>((*db)->wal()->bytes_written());
  state.counters["wal_syncs"] =
      static_cast<double>((*db)->wal()->sync_count());
  db->reset();
  std::remove(wal_path.c_str());
  state.SetLabel("durable batched commit (WAL append + fsync + archive)");
}

void BM_RecoveryReplay(benchmark::State& state) {
  // Recovery-time-vs-WAL-size ablation (DESIGN.md §10): `txns` committed
  // transactions accumulate in the log; with checkpointing enabled a
  // quiesced Checkpoint() runs after them, so the timed Open replays only
  // the fixed post-checkpoint suffix instead of the whole history. The
  // wal_replayed_bytes counter is the receipt: it grows with `txns` in the
  // no-checkpoint rows and stays flat in the checkpointed ones.
  const int txns = static_cast<int>(state.range(0));
  const bool checkpointed = state.range(1) == 1;
  constexpr int kSuffixTxns = 4;
  constexpr int kRows = 64;
  const std::string wal_path =
      (std::filesystem::temp_directory_path() / "bench_recovery.wal")
          .string();
  core::ArchISOptions opts;
  opts.wal.path = wal_path;
  opts.wal.sync = false;  // measuring replay, not the build-up fsyncs
  uint64_t replayed_bytes = 0;
  uint64_t log_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(wal_path.c_str());
    std::remove(core::CheckpointPath(wal_path).c_str());
    std::remove(core::CheckpointPrevPath(wal_path).c_str());
    {
      auto db = core::ArchIS::Open(opts, Date::FromYmd(2000, 1, 1));
      if (!db.ok()) {
        state.SkipWithError(db.status().ToString().c_str());
        return;
      }
      core::RelationSpec spec;
      spec.name = "employees";
      spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                     {"name", minirel::DataType::kString},
                                     {"salary", minirel::DataType::kInt64}});
      spec.key_columns = {"id"};
      spec.doc_name = "employees.xml";
      bool ok = (*db)->CreateRelation(spec).ok();
      for (int64_t id = 1; ok && id <= kRows; ++id) {
        ok = (*db)
                 ->Insert("employees",
                          minirel::Tuple{minirel::Value(id),
                                         minirel::Value("emp"),
                                         minirel::Value(int64_t{50000})})
                 .ok();
      }
      int64_t salary = 50000;
      auto commit_one = [&](int i) {
        auto begun = (*db)->Begin();
        if (!begun.ok()) return false;
        core::Transaction txn = std::move(*begun);
        const int64_t id = i % kRows + 1;
        minirel::Tuple row{minirel::Value(id), minirel::Value("emp"),
                           minirel::Value(++salary)};
        return txn.Update("employees", {minirel::Value(id)}, row).ok() &&
               txn.Commit().ok();
      };
      for (int i = 0; ok && i < txns; ++i) ok = commit_one(i);
      if (ok && checkpointed) ok = (*db)->Checkpoint().ok();
      for (int i = 0; ok && i < kSuffixTxns; ++i) ok = commit_one(txns + i);
      if (!ok) {
        state.SkipWithError("workload build-up failed");
        return;
      }
      log_bytes = (*db)->wal()->end_offset();
      db->reset();
    }
    state.ResumeTiming();
    auto recovered = core::ArchIS::Open(opts, Date::FromYmd(2000, 1, 1));
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      return;
    }
    state.PauseTiming();
    replayed_bytes = (*recovered)->last_recovery_replayed_bytes();
    recovered->reset();
    state.ResumeTiming();
  }
  std::remove(wal_path.c_str());
  std::remove(core::CheckpointPath(wal_path).c_str());
  std::remove(core::CheckpointPrevPath(wal_path).c_str());
  state.counters["wal_bytes"] = static_cast<double>(log_bytes);
  state.counters["wal_replayed_bytes"] = static_cast<double>(replayed_bytes);
  state.SetLabel(checkpointed
                     ? "Open after checkpoint: replay = post-ckpt suffix"
                     : "Open without checkpoint: replay = full history");
}

void BM_GenerateHistory(benchmark::State& state) {
  // The history perfbench's setup_s builds, timed in process: the full
  // 17-year employee workload through ArchIS's transactional write path.
  // /0 is table3's paper scale (120 employees, U_min 0.4, uncompressed),
  // /1 audit_compressed's 8x scale (U_min 0.2, BlockZIP).
  const bool audit = state.range(0) == 1;
  uint64_t changes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::ArchISOptions opts;
    opts.segment.umin = audit ? 0.2 : 0.4;
    opts.segment.compress = audit;
    auto db = std::make_unique<core::ArchIS>(opts, Date::FromYmd(1985, 1, 1));
    workload::WorkloadConfig cfg;
    cfg.initial_employees = audit ? 8 * 120 : 120;
    cfg.years = 17;
    workload::EmployeeWorkload wl(cfg);
    state.ResumeTiming();
    Result<workload::WorkloadStats> stats = wl.Generate(db.get());
    state.PauseTiming();
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    changes += stats->inserts + stats->updates + stats->deletes;
    db.reset();
    state.ResumeTiming();
  }
  // Archived changes (inserts, updates and deletes) per second.
  state.counters["updates_per_s"] =
      benchmark::Counter(static_cast<double>(changes),
                         benchmark::Counter::kIsRate);
  state.SetLabel(audit ? "8x scale, U_min 0.2, BlockZIP"
                       : "paper scale, U_min 0.4, uncompressed");
}

BENCHMARK(BM_ArchISSingleUpdate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CommitBatch)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TaminoSingleUpdate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArchISDailyUpdate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SegmentFreeze)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateHistory)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecoveryReplay)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace archis::bench

int main(int argc, char** argv) {
  printf("== Section 8.4: update performance ==\n");
  printf("Paper shape: ArchIS updates only touch the live segment and are\n"
         "several times faster than document-level updates on the native\n"
         "XML DB (0.29s vs 1.2s single; 1.52s vs 15s daily); the segment\n"
         "freeze is costly but amortised once per segment.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
