// In-memory span recording for the traced benchmark run.
//
// Every public call the traced run makes into a layer (ArchisClient::Query,
// ArchIS::Query / Translate / Execute / QueryNative / PublishHistory,
// Transaction::Commit, xml::Serialize, ...) becomes one Span: name, start,
// end, parent span and request id. Each thread owns one SpanLog, so
// recording is a plain store into a preallocated ring (no locks, no
// allocation on the hot path). The logs are written out once, at exit, as
// Chrome trace_event JSON that tools/trace_check validates.
#ifndef ARCHIS_PERFBENCH_SPANS_H_
#define ARCHIS_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Span names (trace_check requires snake_case).
enum class SpanKind : uint8_t {
  kRequest,
  kClientPing,
  kClientQuery,
  kClientUpdate,
  kArchisQuery,
  kXmlSerialize,
  kArchisTranslate,
  kArchisExecute,
  kArchisPublish,
  kArchisNative,
  kArchisCommit,
};

inline const char* SpanName(SpanKind kind) {
  static const char* const kNames[] = {
      "request",         "client_ping",         "client_query",
      "client_update",   "archis_query",        "xml_serialize",
      "archis_translate", "archis_execute",     "archis_publish_history",
      "archis_query_native", "archis_commit"};
  return kNames[static_cast<size_t>(kind)];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< id of the request span this call belongs to
  SpanKind kind = SpanKind::kRequest;
};

/// One thread's spans. With `capacity` > 0 the log is a ring that keeps
/// the newest `capacity` spans (the cost per span never changes, so the
/// measured tracing overhead holds for arbitrarily long runs); 0 keeps
/// every span.
class SpanLog {
 public:
  SpanLog(uint32_t tid, size_t capacity) : tid_(tid), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  uint32_t tid() const { return tid_; }

  /// A fresh span id; request spans take theirs before their children run.
  uint64_t NextId() { return (static_cast<uint64_t>(tid_) << 32) | ++next_; }

  void Add(SpanKind kind, int64_t start_ns, int64_t end_ns, uint64_t parent,
           uint64_t request, uint64_t id = 0) {
    Span s{start_ns, end_ns, id != 0 ? id : NextId(), parent, request, kind};
    if (capacity_ == 0 || spans_.size() < capacity_) {
      spans_.push_back(s);
    } else {
      spans_[added_ % capacity_] = s;
    }
    ++added_;
  }

  /// Spans in recording order (oldest first).
  std::vector<Span> Contents() const {
    if (capacity_ == 0 || added_ <= capacity_) return spans_;
    std::vector<Span> out;
    out.reserve(capacity_);
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(spans_[(added_ + i) % capacity_]);
    }
    return out;
  }

 private:
  uint32_t tid_;
  size_t capacity_;
  uint64_t next_ = 0;
  uint64_t added_ = 0;
  std::vector<Span> spans_;
};

/// Writes `logs` as Chrome trace_event JSON ("X" events, microseconds
/// relative to `origin_ns`). Returns false if the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanLog*>& logs,
                             int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->Contents()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu}}",
                   first ? "" : ",", SpanName(s.kind),
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   log->tid(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // ARCHIS_PERFBENCH_SPANS_H_
