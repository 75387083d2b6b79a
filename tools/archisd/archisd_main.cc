// archisd: the ArchIS network daemon.
//
//   archisd --data DIR --port N [--http-port N] [--workers N]
//           [--queue-depth N] [--deadline-ms N] [--seed-workload]
//           [--employees N] [--years N] [--port-file PATH]
//
// Serves the binary protocol (server/protocol.h) on --port and, when
// --http-port is given, an HTTP/1.0 shim with GET /metrics (Prometheus
// text exposition) and POST /query (body = XQuery, response = XML).
// Port 0 binds an ephemeral port; --port-file writes the actual bound
// ports ("<port> <http_port>\n") so scripts can find them.
//
// --data DIR makes the store durable (WAL + checkpoints under DIR);
// without it the instance is in-memory. --seed-workload loads the
// synthetic employee history (the paper's evaluation data) before
// serving, so a fresh daemon has something to query.
//
// SIGTERM / SIGINT trigger a graceful shutdown: stop accepting, drain
// every admitted request, exit 0.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <sys/stat.h>
#include <unistd.h>

#include "archis/archis.h"
#include "common/parse.h"
#include "server/server.h"
#include "workload/employee_workload.h"

namespace {

using archis::Date;
using archis::Status;
using archis::core::ArchIS;
using archis::core::ArchISOptions;

int Usage() {
  std::fprintf(
      stderr,
      "usage: archisd [--data DIR] [--port N] [--http-port N]\n"
      "               [--host ADDR] [--workers N] [--queue-depth N]\n"
      "               [--deadline-ms N] [--max-connections N]\n"
      "               [--seed-workload] [--employees N] [--years N]\n"
      "               [--port-file PATH]\n");
  return 2;
}

// Self-pipe: the signal handler only writes one byte; the main thread
// blocks on the read end and runs the actual (non-async-signal-safe)
// shutdown.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 1;
  // Best effort: a full pipe means a shutdown is already pending.
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  std::string port_file;
  archis::server::ServerOptions server_opts;
  server_opts.port = 4846;
  bool seed_workload = false;
  int employees = 60;
  int years = 8;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value: the next argument, a whole integer in
    // [lo, hi]. Anything else is a usage error.
    auto number = [&](int64_t lo, int64_t hi, auto* out) {
      const char* v = next();
      if (v == nullptr) return false;
      const archis::Result<int64_t> n = archis::ParseInt64InRange(v, lo, hi);
      if (!n.ok()) {
        std::fprintf(stderr, "archisd: %s: %s\n", arg.c_str(),
                     n.status().message().c_str());
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(*n);
      return true;
    };
    const char* v = nullptr;
    if (arg == "--data") {
      if ((v = next()) == nullptr) return Usage();
      data_dir = v;
    } else if (arg == "--port") {
      if (!number(0, 65535, &server_opts.port)) return Usage();
    } else if (arg == "--http-port") {
      if (!number(0, 65535, &server_opts.http_port)) return Usage();
    } else if (arg == "--host") {
      if ((v = next()) == nullptr) return Usage();
      server_opts.host = v;
    } else if (arg == "--workers") {
      if (!number(1, 256, &server_opts.workers)) return Usage();
    } else if (arg == "--queue-depth") {
      if (!number(1, 1 << 20, &server_opts.queue_capacity)) return Usage();
    } else if (arg == "--deadline-ms") {
      if (!number(0, UINT32_MAX, &server_opts.default_deadline_ms)) {
        return Usage();
      }
    } else if (arg == "--max-connections") {
      if (!number(1, 1 << 20, &server_opts.max_connections)) return Usage();
    } else if (arg == "--seed-workload") {
      seed_workload = true;
    } else if (arg == "--employees") {
      if (!number(1, 1 << 20, &employees)) return Usage();
    } else if (arg == "--years") {
      if (!number(1, 200, &years)) return Usage();
    } else if (arg == "--port-file") {
      if ((v = next()) == nullptr) return Usage();
      port_file = v;
    } else {
      return Usage();
    }
  }

  ArchISOptions options;
  if (!data_dir.empty()) {
    ::mkdir(data_dir.c_str(), 0755);
    options.wal.path = data_dir + "/archis.wal";
  }
  archis::workload::WorkloadConfig config;
  config.initial_employees = employees;
  config.years = years;

  auto opened = ArchIS::Open(options, config.start_date);
  if (!opened.ok()) {
    std::fprintf(stderr, "archisd: open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  ArchIS& db = **opened;

  if (seed_workload) {
    archis::workload::EmployeeWorkload wl(config);
    auto stats = wl.Generate(&db);
    if (!stats.ok()) {
      std::fprintf(stderr, "archisd: workload failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (Status st = db.FreezeAll(); !st.ok()) {
      std::fprintf(stderr, "archisd: freeze failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // Install signal handling BEFORE starting the server so a racing
  // SIGTERM still shuts down cleanly.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "archisd: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  auto server = archis::server::ArchisServer::Start(&db, server_opts);
  if (!server.ok()) {
    std::fprintf(stderr, "archisd: start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "archisd: serving on port %d (http %d)\n",
               (*server)->port(), (*server)->http_port());

  if (!port_file.empty()) {
    // Write to a temp name and rename so readers never see a partial
    // file.
    const std::string tmp = port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "archisd: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d %d\n", (*server)->port(), (*server)->http_port());
    std::fclose(f);
    std::rename(tmp.c_str(), port_file.c_str());
  }

  // Park until a shutdown signal arrives.
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "archisd: shutting down\n");
  Status st = (*server)->Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "archisd: stop failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
