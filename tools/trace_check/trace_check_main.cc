// trace_check: validates a flight-recorder artifact — either a Chrome
// trace_event JSON file (archis-stats --trace, ArchIS::DumpTrace) or a
// `.crashdump` written by the crash handler / recovery_fuzz.
//
//   trace_check FILE [--min-events N]      (FILE may be "-" for stdin)
//
// Checks, via the in-tree JSON parser (common/json.h):
//   - the file parses as one JSON object;
//   - it carries a "traceEvents" array (trace) or an "events" array plus
//     "reason"/"unix_ms"/"pid" (crashdump);
//   - every event object has a snake_case string "name", a string "ph"
//     of "i" or "X", numeric "ts"/"pid"/"tid", and "dur" when ph=="X";
//   - at least --min-events events are present (default 1).
//
// Exit 0 on success; 1 with one diagnostic line per violation otherwise.
// scripts/check.sh runs it over a fresh workload trace so a malformed
// emitter fails tier-1 verification.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/parse.h"

namespace {

using archis::json::Value;
using Type = archis::json::Value::Type;

bool IsSnakeCase(const std::string& s) {
  if (s.empty() || s[0] < 'a' || s[0] > 'z') return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

int g_errors = 0;

void Fail(size_t index, const char* what) {
  std::fprintf(stderr, "trace_check: event %zu: %s\n", index, what);
  ++g_errors;
}

void CheckEvent(size_t i, const Value& ev) {
  if (ev.type() != Type::kObject) {
    Fail(i, "not a JSON object");
    return;
  }
  const Value* name = ev.Find("name");
  if (name == nullptr || name->type() != Type::kString) {
    Fail(i, "missing string \"name\"");
  } else if (!IsSnakeCase(name->AsString())) {
    Fail(i, "\"name\" is not snake_case");
  }
  const Value* ph = ev.Find("ph");
  bool complete = false;
  if (ph == nullptr || ph->type() != Type::kString) {
    Fail(i, "missing string \"ph\"");
  } else if (ph->AsString() == "X") {
    complete = true;
  } else if (ph->AsString() != "i") {
    Fail(i, "\"ph\" must be \"i\" or \"X\"");
  }
  for (const char* key : {"ts", "pid", "tid"}) {
    const Value* v = ev.Find(key);
    if (v == nullptr || v->type() != Type::kNumber) {
      Fail(i, "missing numeric ts/pid/tid field");
      break;
    }
  }
  if (complete) {
    const Value* dur = ev.Find("dur");
    if (dur == nullptr || dur->type() != Type::kNumber) {
      Fail(i, "complete event (ph=X) without numeric \"dur\"");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  int64_t min_events = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-events") == 0 && i + 1 < argc) {
      const archis::Result<int64_t> n =
          archis::ParseInt64InRange(argv[++i], 0, INT64_MAX);
      if (!n.ok()) {
        std::fprintf(stderr, "trace_check: --min-events: %s\n",
                     n.status().message().c_str());
        std::fprintf(stderr, "usage: trace_check FILE [--min-events N]\n");
        return 2;
      }
      min_events = *n;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: trace_check FILE [--min-events N]\n");
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: trace_check FILE [--min-events N]\n");
    return 2;
  }

  std::ostringstream buf;
  if (std::strcmp(path, "-") == 0) {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "trace_check: cannot read %s\n", path);
      return 1;
    }
    buf << in.rdbuf();
  }
  const std::string text = buf.str();

  auto parsed = archis::json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path,
                 parsed.status().ToString().c_str());
    return 1;
  }
  const Value& root = *parsed;
  if (root.type() != Type::kObject) {
    std::fprintf(stderr, "trace_check: %s: root is not an object\n", path);
    return 1;
  }

  const Value* events = root.Find("traceEvents");
  if (events == nullptr) {
    // Crashdump shape: events plus the crash envelope.
    events = root.Find("events");
    if (events != nullptr) {
      for (const char* key : {"reason", "unix_ms", "pid"}) {
        if (root.Find(key) == nullptr) {
          std::fprintf(stderr, "trace_check: %s: crashdump missing \"%s\"\n",
                       path, key);
          ++g_errors;
        }
      }
    }
  }
  if (events == nullptr || events->type() != Type::kArray) {
    std::fprintf(stderr,
                 "trace_check: %s: no \"traceEvents\"/\"events\" array\n",
                 path);
    return 1;
  }

  const auto& items = events->items();
  for (size_t i = 0; i < items.size(); ++i) CheckEvent(i, items[i]);
  if (static_cast<int64_t>(items.size()) < min_events) {
    std::fprintf(stderr, "trace_check: %s: %zu events, expected >= %lld\n",
                 path, items.size(), static_cast<long long>(min_events));
    ++g_errors;
  }

  if (g_errors > 0) return 1;
  std::printf("trace_check: %s: %zu events ok\n", path, items.size());
  return 0;
}
