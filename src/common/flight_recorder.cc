#include "common/flight_recorder.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "common/log.h"
#include "common/metrics.h"
#include "common/parse.h"

namespace archis::fr {
namespace {

// ---------------------------------------------------------------------------
// Ring pool

// One published event: a per-slot seqlock word bracketing six relaxed
// atomic data words (48 bytes of payload). See the header comment for
// the publish/read protocol.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> w[6] = {};
};

struct Ring {
  uint16_t tid = 0;       // index in the pool, stamped into events
  uint32_t capacity = 0;  // slots; events older than the last `capacity`
                          // are overwritten
  std::atomic<uint64_t> next{0};  // monotonic count of events ever written
  // `capacity` slots in an anonymous mapping, each constructed by its
  // first write. Untouched pages stay unbacked, so a thread that records
  // a handful of events before exiting pins a page or two of its leaked
  // ring, not all of it.
  Slot* slots = nullptr;
};

constexpr uint32_t kMaxRings = 256;
constexpr uint32_t kDefaultRingEvents = 2048;

std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<uint32_t> g_ring_count{0};

uint32_t RingCapacityFromEnv() {
  static const uint32_t cap = [] {
    const char* env = std::getenv("ARCHIS_FR_RING");
    if (env == nullptr) return kDefaultRingEvents;
    // Strict parse (the old strtol ignored the end pointer, so "4096xyz"
    // half-parsed); a rejected or out-of-range value falls back to the
    // default with one warning instead of a silent drop.
    const Result<int64_t> v = ParseInt64(env);
    if (!v.ok()) {
      logging::Warn("env.rejected")
          .Kv("var", "ARCHIS_FR_RING")
          .Kv("value", env)
          .Kv("error", v.status().message());
      return kDefaultRingEvents;
    }
    if (*v < 8 || *v > (1 << 20)) {
      logging::Warn("env.rejected")
          .Kv("var", "ARCHIS_FR_RING")
          .Kv("value", env)
          .Kv("error", "out of range [8, 1048576]");
      return kDefaultRingEvents;
    }
    return static_cast<uint32_t>(*v);
  }();
  return cap;
}

// Claims one pool slot for the calling thread. Rings are heap-allocated
// on first use (never from a signal context: Record is only called from
// regular code) and intentionally leaked so a crash dump still sees the
// events of exited threads.
Ring* ClaimRing() {
  const uint32_t idx = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxRings) return nullptr;  // pool exhausted: drop events
  const uint32_t capacity = RingCapacityFromEnv();
  void* mem = mmap(nullptr, sizeof(Slot) * capacity, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return nullptr;  // this thread records nothing
  Ring* ring = new Ring();
  ring->tid = static_cast<uint16_t>(idx);
  ring->capacity = capacity;
  ring->slots = static_cast<Slot*>(mem);
  g_rings[idx].store(ring, std::memory_order_release);
  return ring;
}

thread_local Ring* t_ring = nullptr;
thread_local bool t_ring_unavailable = false;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -1 = read ARCHIS_FLIGHT_RECORDER on first use.
std::atomic<int> g_enabled{-1};

}  // namespace

bool Enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("ARCHIS_FLIGHT_RECORDER");
    const int on = (env == nullptr || std::strcmp(env, "0") != 0) ? 1 : 0;
    g_enabled.compare_exchange_strong(v, on, std::memory_order_relaxed);
    v = g_enabled.load(std::memory_order_relaxed);
  }
  return v != 0;
}

void SetEnabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

const char* EventTypeName(EventType type) {
  switch (type) {
#define ARCHIS_FR_NAME(sym, name) \
  case EventType::sym:            \
    return name;
    ARCHIS_FR_EVENT_LIST(ARCHIS_FR_NAME)
#undef ARCHIS_FR_NAME
    case EventType::kNone:
      break;
  }
  return "unknown";
}

bool EventHasDuration(EventType type) {
  return type == EventType::kWalFsync || type == EventType::kQueryExecute ||
         type == EventType::kSlowQuery || type == EventType::kRequestEnd;
}

const char* AbortReasonName(AbortReason reason) {
  switch (reason) {
    case AbortReason::kExplicit:
      return "explicit";
    case AbortReason::kConflict:
      return "conflict";
    case AbortReason::kWrongThread:
      return "wrong_thread";
    case AbortReason::kWalPoison:
      return "wal_poison";
  }
  return "unknown";
}

void Record(EventType type, uint64_t a, uint64_t b, uint32_t flags,
            std::string_view detail) {
  if (!Enabled()) return;
  Ring* ring = t_ring;
  if (ring == nullptr) {
    if (t_ring_unavailable) return;
    ring = ClaimRing();
    if (ring == nullptr) {
      t_ring_unavailable = true;
      return;
    }
    t_ring = ring;
  }
  const uint64_t ts = NowNs();
  uint64_t d[2] = {0, 0};
  if (!detail.empty()) {
    std::memcpy(d, detail.data(), std::min<size_t>(detail.size(), 16));
  }
  const uint64_t idx = ring->next.load(std::memory_order_relaxed);
  // Readers only visit slots below `next`, so constructing a slot on the
  // ring's first pass happens before any read of it.
  if (idx < ring->capacity) new (&ring->slots[idx]) Slot();
  Slot& slot = ring->slots[idx % ring->capacity];
  // Seqlock publish: odd marks the slot in-flight; the release fence
  // keeps the mark ahead of the data stores, and the final release store
  // publishes the whole slot.
  const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.w[0].store(ts, std::memory_order_relaxed);
  slot.w[1].store(static_cast<uint64_t>(type) |
                      (static_cast<uint64_t>(ring->tid) << 16) |
                      (static_cast<uint64_t>(flags) << 32),
                  std::memory_order_relaxed);
  slot.w[2].store(a, std::memory_order_relaxed);
  slot.w[3].store(b, std::memory_order_relaxed);
  slot.w[4].store(d[0], std::memory_order_relaxed);
  slot.w[5].store(d[1], std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
  ring->next.store(idx + 1, std::memory_order_release);
}

std::vector<Event> Snapshot() {
  std::vector<Event> out;
  const uint32_t rings =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (uint32_t i = 0; i < rings; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;  // claim in flight
    const uint64_t next = ring->next.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(next, ring->capacity);
    for (uint64_t j = next - count; j < next; ++j) {
      Slot& slot = ring->slots[j % ring->capacity];
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // writer mid-publish
      uint64_t w[6];
      for (int k = 0; k < 6; ++k) {
        w[k] = slot.w[k].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
      const auto type = static_cast<uint16_t>(w[1] & 0xffff);
      if (type == 0 || type > static_cast<uint16_t>(EventType::kCrash)) {
        continue;
      }
      Event ev;
      ev.ts_ns = w[0];
      ev.type = static_cast<EventType>(type);
      ev.tid = static_cast<uint16_t>((w[1] >> 16) & 0xffff);
      ev.flags = static_cast<uint32_t>(w[1] >> 32);
      ev.a = w[2];
      ev.b = w[3];
      uint64_t d[2] = {w[4], w[5]};
      std::memcpy(ev.detail, d, 16);
      ev.detail[16] = '\0';
      out.push_back(ev);
    }
  }
  std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    return x.tid < y.tid;
  });
  return out;
}

void ResetForTest() {
  const uint32_t rings =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (uint32_t i = 0; i < rings; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t written = std::min<uint64_t>(
        ring->next.load(std::memory_order_acquire), ring->capacity);
    for (uint64_t j = 0; j < written; ++j) {
      Slot& slot = ring->slots[j];
      for (auto& word : slot.w) word.store(0, std::memory_order_relaxed);
      slot.seq.store(0, std::memory_order_relaxed);
    }
    ring->next.store(0, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// JSON rendering

namespace {

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20 || c >= 0x7f) {
          // Control and non-ASCII bytes (binary key material) escape to
          // \u00XX so the dump is always valid JSON.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(ch);
        }
    }
  }
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

// One Chrome trace_event object. Duration-carrying events render as "X"
// (complete) events starting at ts - dur; the rest are thread-scoped
// instants.
void AppendEventJson(const Event& ev, std::string* out) {
  const bool has_dur = EventHasDuration(ev.type);
  const uint64_t dur_ns = has_dur ? ev.b : 0;
  const uint64_t start_ns = ev.ts_ns >= dur_ns ? ev.ts_ns - dur_ns : 0;
  out->append("{\"name\":\"");
  out->append(EventTypeName(ev.type));
  out->append(has_dur ? "\",\"ph\":\"X\"" : "\",\"ph\":\"i\",\"s\":\"t\"");
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"ts\":%llu.%03llu",
                static_cast<unsigned long long>(start_ns / 1000),
                static_cast<unsigned long long>(start_ns % 1000));
  out->append(buf);
  if (has_dur) {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%llu.%03llu",
                  static_cast<unsigned long long>(dur_ns / 1000),
                  static_cast<unsigned long long>(dur_ns % 1000));
    out->append(buf);
  }
  out->append(",\"pid\":1,\"tid\":");
  AppendU64(ev.tid, out);
  out->append(",\"args\":{\"a\":");
  AppendU64(ev.a, out);
  out->append(",\"b\":");
  AppendU64(ev.b, out);
  out->append(",\"flags\":");
  AppendU64(ev.flags, out);
  if (ev.detail[0] != '\0') {
    out->append(",\"detail\":\"");
    AppendJsonEscaped(ev.detail, out);
    out->append("\"");
  }
  out->append("}}");
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 128 + 32);
  out.append("{\"traceEvents\":[");
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append("\n");
    AppendEventJson(events[i], &out);
  }
  out.append("\n]}\n");
  return out;
}

// ---------------------------------------------------------------------------
// Crash dumps

namespace {

constexpr int kMaxCrashSources = 8;
std::atomic<CrashInfoSource*> g_crash_sources[kMaxCrashSources];

bool WriteWholeFile(const char* path, const std::string& bytes) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return true;
}

}  // namespace

void RegisterCrashInfoSource(CrashInfoSource* source) {
  for (auto& slot : g_crash_sources) {
    CrashInfoSource* expected = nullptr;
    if (slot.compare_exchange_strong(expected, source,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

void UnregisterCrashInfoSource(CrashInfoSource* source) {
  for (auto& slot : g_crash_sources) {
    CrashInfoSource* expected = source;
    slot.compare_exchange_strong(expected, nullptr,
                                 std::memory_order_acq_rel);
  }
}

std::string WriteCrashDump(const char* reason) {
  // One dump at a time; a crash while dumping must not recurse.
  static std::atomic<bool> dumping{false};
  bool expected = false;
  if (!dumping.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    return "";
  }
  const uint64_t unix_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const char* dir = std::getenv("ARCHIS_CRASHDUMP_DIR");
  if (dir == nullptr || dir[0] == '\0') dir = ".";
  char path[512];
  std::snprintf(path, sizeof(path), "%s/archis-%llu-%d.crashdump", dir,
                static_cast<unsigned long long>(unix_ms),
                static_cast<int>(::getpid()));

  // Stamp the reason into the stream so the dump's last event is the
  // crash itself, then drain.
  Record(EventType::kCrash, 0, 0, 0, reason);
  const std::vector<Event> events = Snapshot();

  std::string out;
  out.reserve(events.size() * 128 + 4096);
  out.append("{\"reason\":\"");
  AppendJsonEscaped(reason, &out);
  out.append("\",\"unix_ms\":");
  AppendU64(unix_ms, &out);
  out.append(",\"pid\":");
  AppendU64(static_cast<uint64_t>(::getpid()), &out);
  out.append(",\n\"sources\":[");
  bool first = true;
  for (auto& slot : g_crash_sources) {
    CrashInfoSource* source = slot.load(std::memory_order_acquire);
    if (source == nullptr) continue;
    if (!first) out.push_back(',');
    first = false;
    source->AppendCrashJson(&out);
  }
  out.append("],\n\"metrics\":\"");
  // Best-effort: empty when the crashing thread holds the registry lock.
  AppendJsonEscaped(metrics::Registry::Global().TryTextFormat(), &out);
  out.append("\",\n\"events\":[");
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append("\n");
    AppendEventJson(events[i], &out);
  }
  out.append("\n]}\n");

  const bool ok = WriteWholeFile(path, out);
  dumping.store(false, std::memory_order_release);
  return ok ? std::string(path) : std::string();
}

namespace {

const char* SignalReason(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "signal:SIGSEGV";
    case SIGABRT:
      return "signal:SIGABRT";
    case SIGBUS:
      return "signal:SIGBUS";
    case SIGFPE:
      return "signal:SIGFPE";
    case SIGILL:
      return "signal:SIGILL";
  }
  return "signal:unknown";
}

// Best-effort by design (it allocates and takes no locks it can avoid):
// the usual failure-signal-handler trade-off. The default disposition is
// restored before re-raising, so wait status and core dumps are exactly
// what they would have been without the handler.
void CrashSignalHandler(int sig) {
  WriteCrashDump(SignalReason(sig));
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void InstallCrashHandler() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &CrashSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_NODEFER;
    sigaction(sig, &sa, nullptr);
  }
}

}  // namespace archis::fr
