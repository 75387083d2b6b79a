// Concurrency ablations for the transactional write path (DESIGN.md §13):
//
//   BM_CommitThroughput/threads:N — N writer threads, each committing
//   single-key transactions against its own key through the shared WAL.
//   Group commit batches the fsyncs, so throughput should grow with the
//   writer count instead of serializing behind the log.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "archis/archis.h"
#include "archis/checkpoint.h"

namespace archis::bench {
namespace {

using core::ArchIS;
using core::ArchISOptions;
using core::RelationSpec;
using core::Transaction;
using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;
using minirel::Value;

std::string WalPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveInstanceFiles(const std::string& wal_path) {
  std::remove(wal_path.c_str());
  std::remove(core::CheckpointPath(wal_path).c_str());
  std::remove(core::CheckpointPrevPath(wal_path).c_str());
  std::remove(core::CheckpointTmpPath(wal_path).c_str());
}

RelationSpec CounterSpec() {
  RelationSpec spec;
  spec.name = "counters";
  spec.schema = Schema({{"id", DataType::kInt64},
                        {"count", DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "counters.xml";
  return spec;
}

Result<std::unique_ptr<ArchIS>> OpenWithRows(const std::string& wal_path,
                                             int64_t rows) {
  RemoveInstanceFiles(wal_path);
  ArchISOptions opts;
  opts.wal.path = wal_path;
  ARCHIS_ASSIGN_OR_RETURN(std::unique_ptr<ArchIS> db,
                          ArchIS::Open(opts, Date::FromYmd(2000, 1, 1)));
  ARCHIS_RETURN_NOT_OK(db->CreateRelation(CounterSpec()));
  for (int64_t id = 1; id <= rows; ++id) {
    ARCHIS_RETURN_NOT_OK(
        db->Insert("counters", Tuple{Value(id), Value(int64_t{0})}));
  }
  return db;
}

void BM_CommitThroughput(benchmark::State& state) {
  // Shared across the worker threads of one run; thread 0 owns setup and
  // teardown (the library barriers the others at the loop edges).
  static std::unique_ptr<ArchIS> db;
  static std::string wal_path;
  if (state.thread_index() == 0) {
    wal_path = WalPath("bench_concurrency_commit.wal");
    auto opened = OpenWithRows(wal_path, 8);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    db = std::move(*opened);
  }
  int64_t count = 0;
  const int64_t id = state.thread_index() + 1;
  for (auto _ : state) {
    auto begun = db->Begin();
    if (!begun.ok()) {
      state.SkipWithError(begun.status().ToString().c_str());
      return;
    }
    Transaction txn = std::move(*begun);
    if (!txn.Update("counters", {Value(id)},
                    Tuple{Value(id), Value(++count)}).ok()) {
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
    state.counters["wal_syncs"] =
        static_cast<double>(db->wal()->sync_count());
    db.reset();
    RemoveInstanceFiles(wal_path);
  }
  state.SetLabel("disjoint single-key commits, group-committed WAL");
}

BENCHMARK(BM_CommitThroughput)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace archis::bench

int main(int argc, char** argv) {
  printf("== Concurrency: commit throughput ==\n");
  printf("Expected shape: commit throughput grows with writer count\n"
         "(group commit shares each fsync).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
