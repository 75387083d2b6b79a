// End-to-end latency of the archisd network front end (DESIGN.md §15):
//
//   BM_ServerMixedWorkload/K — K concurrent client connections replay a
//   mixed workload against an in-process ArchisServer: 80% Table-3
//   queries (Q1–Q6 round-robin over the native XQuery forms) and 20%
//   update batches rewriting a per-client employee's salary. Each
//   request's wall-clock latency is recorded client-side; the run
//   reports p50/p95/p99 in milliseconds plus aggregate throughput, so
//   BENCH_server.json captures how tail latency moves as the connection
//   count crosses the worker-pool size. The native_queries counter is the
//   run's archis_queries_native_total delta: the queries answered by
//   native evaluation (every Table-3 text translates, so it should be 0).
//
// The server runs with its production defaults (4 workers, 64-deep
// admission queue, no default deadline); clients never set per-request
// deadlines here, so every request is admitted and measured rather than
// shed — overload behaviour is covered by tests, not benchmarked.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "server/client.h"
#include "server/server.h"

namespace archis::bench {
namespace {

using server::ArchisClient;
using server::ArchisServer;
using server::ClientOptions;
using server::ServerOptions;

constexpr int kMaxClients = 16;
/// Requests issued by every client per timed iteration; one in five is
/// an update batch, the rest walk Q1..Q6.
constexpr int kRequestsPerClient = 20;
constexpr int64_t kBenchIdBase = 900000;

/// The shared system under test: one dataset, one server, reused across
/// the /1, /4 and /16 runs so their numbers are comparable.
struct ServerFixture {
  Systems sys;
  std::unique_ptr<ArchisServer> srv;
  std::vector<std::string> queries;  ///< pre-rendered XQuery texts

  ServerFixture() {
    BuildOptions opts;
    opts.years = 8;
    opts.base_employees = 60;
    opts.with_tamino = false;
    sys = BuildSystems(opts);
    ServerOptions sopts;
    sopts.port = 0;  // ephemeral; clients read it back from srv->port()
    auto started = ArchisServer::Start(sys.archis.get(), sopts);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.status().ToString().c_str());
      std::abort();
    }
    srv = std::move(*started);
    for (const BenchQuery& q : kTable3Queries) {
      queries.push_back(q.xq(sys));
    }
    // Seed one employee per potential client so update batches touch
    // disjoint keys and never conflict with each other.
    ArchisClient seed(ClientFor());
    std::string script;
    for (int k = 0; k < kMaxClients; ++k) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "insert employees|%lld|Bench Client %d|50000|Engineer|D1\n",
                    static_cast<long long>(kBenchIdBase + k), k);
      script += line;
    }
    auto ack = seed.UpdateBatch(script);
    if (!ack.ok()) {
      std::fprintf(stderr, "seed batch failed: %s\n",
                   ack.status().ToString().c_str());
      std::abort();
    }
  }

  ClientOptions ClientFor() const {
    ClientOptions copts;
    copts.port = srv->port();
    return copts;
  }

  std::string UpdateScript(int client, int64_t salary) const {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "update employees|%lld|Bench Client %d|%lld|Engineer|D1\n",
                  static_cast<long long>(kBenchIdBase + client), client,
                  static_cast<long long>(salary));
    return line;
  }

  static ServerFixture& Get() {
    static ServerFixture fixture;
    return fixture;
  }
};

double PercentileMs(const std::vector<int64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_ns.size()));
  idx = std::min(idx, sorted_ns.size() - 1);
  return static_cast<double>(sorted_ns[idx]) / 1e6;
}

/// Queries the facade answered by native evaluation (the translator's
/// fallback); every Table-3 text translates, so a run should add none.
metrics::Counter* NativeQueries() {
  return metrics::Registry::Global().GetCounter(
      "archis_queries_native_total",
      "Queries answered by native evaluation over published H-documents");
}

void BM_ServerMixedWorkload(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  ServerFixture& fx = ServerFixture::Get();
  const uint64_t native_before = NativeQueries()->value();

  std::mutex merge_mu;
  std::vector<int64_t> latencies_ns;
  double total_seconds = 0.0;
  int64_t total_requests = 0;
  int64_t round = 0;

  for (auto _ : state) {
    std::vector<std::vector<int64_t>> per_thread(clients);
    std::vector<std::thread> threads;
    bool failed = false;
    std::string failure;
    const int64_t salary = 50000 + ++round;
    auto round_start = std::chrono::steady_clock::now();
    threads.reserve(clients);
    for (int k = 0; k < clients; ++k) {
      threads.emplace_back([&, k]() {
        ArchisClient client(fx.ClientFor());
        auto& samples = per_thread[k];
        samples.reserve(kRequestsPerClient);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          auto begin = std::chrono::steady_clock::now();
          Status st =
              i % 5 == 4
                  ? client.UpdateBatch(fx.UpdateScript(k, salary)).status()
                  : client.Query(fx.queries[i % fx.queries.size()]).status();
          auto end = std::chrono::steady_clock::now();
          if (!st.ok()) {
            std::lock_guard<std::mutex> lk(merge_mu);
            failed = true;
            failure = st.ToString();
            return;
          }
          samples.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  end - begin)
                  .count());
        }
      });
    }
    for (auto& t : threads) t.join();
    auto round_end = std::chrono::steady_clock::now();
    if (failed) {
      state.SkipWithError(failure.c_str());
      return;
    }
    total_seconds +=
        std::chrono::duration<double>(round_end - round_start).count();
    for (auto& samples : per_thread) {
      total_requests += static_cast<int64_t>(samples.size());
      latencies_ns.insert(latencies_ns.end(), samples.begin(),
                          samples.end());
    }
  }

  std::sort(latencies_ns.begin(), latencies_ns.end());
  state.SetItemsProcessed(total_requests);
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["p50_ms"] = PercentileMs(latencies_ns, 0.50);
  state.counters["p95_ms"] = PercentileMs(latencies_ns, 0.95);
  state.counters["p99_ms"] = PercentileMs(latencies_ns, 0.99);
  state.counters["qps"] =
      total_seconds > 0.0
          ? static_cast<double>(total_requests) / total_seconds
          : 0.0;
  state.counters["native_queries"] =
      static_cast<double>(NativeQueries()->value() - native_before);
  state.SetLabel("80% Table-3 queries / 20% update batches over TCP");
}

BENCHMARK(BM_ServerMixedWorkload)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace archis::bench

int main(int argc, char** argv) {
  printf("archisd network front end: %d-request mixed rounds per client\n"
         "(80%% Table-3 queries, 20%% update batches).\n\n"
         "Expected shape: p50 stays near the single-client service time\n"
         "while p95/p99 grow once the connection count exceeds the 4-way\n"
         "worker pool and requests start queueing for admission.\n\n",
         archis::bench::kRequestsPerClient);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
