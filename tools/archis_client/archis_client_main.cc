// archis-client: command-line client for archisd's binary protocol.
//
//   archis-client --port N [--host H] ping
//   archis-client --port N [--deadline-ms N] query "<XQuery>"
//   archis-client --port N update "<script>"     (see server/protocol.h
//                                                 for the line grammar)
//
// Prints the response payload to stdout; protocol/server errors go to
// stderr with exit code 1 (3 for Overloaded, 4 for DeadlineExceeded, so
// scripts can distinguish admission outcomes).
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "common/parse.h"
#include "server/client.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: archis-client --port N [--host H] [--deadline-ms N]\n"
               "                     ping | query XQ | update SCRIPT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  archis::server::ClientOptions opts;
  uint32_t deadline_ms = 0;
  std::string command;
  std::string operand;

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
        std::fprintf(stderr, "archis-client: %s: %s\n", arg.c_str(),
                     n.status().message().c_str());
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(*n);
      return true;
    };
    const char* v = nullptr;
    if (arg == "--port") {
      if (!number(1, 65535, &opts.port)) return Usage();
    } else if (arg == "--host") {
      if ((v = next()) == nullptr) return Usage();
      opts.host = v;
    } else if (arg == "--deadline-ms") {
      if (!number(0, UINT32_MAX, &deadline_ms)) return Usage();
    } else if (command.empty()) {
      command = arg;
    } else if (operand.empty()) {
      operand = arg;
    } else {
      return Usage();
    }
  }
  if (opts.port <= 0 || command.empty()) return Usage();

  archis::server::ArchisClient client(opts);
  const auto report = [](const archis::Status& st) {
    std::fprintf(stderr, "archis-client: %s\n", st.ToString().c_str());
    switch (st.code()) {
      case archis::StatusCode::kOverloaded:       return 3;
      case archis::StatusCode::kDeadlineExceeded: return 4;
      default:                                    return 1;
    }
  };

  if (command == "ping") {
    archis::Status st = client.Ping();
    if (!st.ok()) return report(st);
    std::printf("pong\n");
    return 0;
  }
  if (operand.empty()) return Usage();
  archis::Result<std::string> result =
      command == "query"    ? client.Query(operand, deadline_ms)
      : command == "update" ? client.UpdateBatch(operand)
                            : archis::Result<std::string>(
                                  archis::Status::InvalidArgument(
                                      "unknown command '" + command + "'"));
  if (command != "query" && command != "update") return Usage();
  if (!result.ok()) return report(result.status());
  std::printf("%s\n", result->c_str());
  return 0;
}
