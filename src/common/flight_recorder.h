// Always-on flight recorder: per-thread lock-free ring buffers of
// fixed-size binary trace events (DESIGN.md §14).
//
// Every hot-path subsystem — the transaction facade, the WAL group
// commit, checkpoints, the query executor, the block cache, segment
// freezes — appends 48-byte events into a ring owned by the calling
// thread. Appends are wait-free (one seqlock publish over six relaxed
// atomic words, no CAS, no shared cache line between threads), so the
// recorder stays on in production: its budget is <1% of commit
// throughput (BM_FlightRecorderOverhead) and tens of nanoseconds per
// event (BM_EventAppend).
//
// Memory model (the Boehm seqlock-with-atomics recipe): every data word
// of a slot is a relaxed std::atomic<uint64_t>, bracketed by a per-slot
// sequence word. The writer publishes odd (release fence), stores the
// words relaxed, then stores even with release; a reader snapshots the
// sequence with acquire, copies the words relaxed, fences acquire, and
// re-checks the sequence — a torn slot is simply discarded. Because the
// data words are themselves atomics there is no undefined behaviour in
// the racing read, which keeps the scheme ThreadSanitizer-clean.
//
// Rings are claimed from a fixed global pool on a thread's first append
// and are never freed: a thread's last events survive its exit so a
// crash dump sees the whole recent history. A ring's slots live in an
// anonymous mapping and are backed by memory only once written, so the
// rings of short-lived threads cost a page or two each. Draining (DumpTrace, the
// crash handler) walks every claimed ring concurrently with writers.
//
// The crash path: InstallCrashHandler() hooks the fatal signals
// (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL — which also covers lock-rank
// aborts and assertion failures, both of which die via abort()) and
// writes a timestamped `.crashdump` JSON file carrying the drained
// event history, a best-effort metrics exposition and the active
// transaction table, then re-raises. The dump is best-effort by design
// (it allocates), mirroring the usual failure-signal-handler trade-off:
// a diagnostic that usually works beats none at all.
#ifndef ARCHIS_COMMON_FLIGHT_RECORDER_H_
#define ARCHIS_COMMON_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace archis::fr {

// The registered trace-event vocabulary. Every display name must be a
// snake_case literal (archis-lint rule `trace-event-names`), and every
// fr::Record call site must pass an EventType enumerator, never an
// integer or a variable — the trace schema is closed by construction.
#define ARCHIS_FR_EVENT_LIST(X)              \
  X(kTxnBegin, "txn_begin")                  \
  X(kTxnCommit, "txn_commit")                \
  X(kTxnAbort, "txn_abort")                  \
  X(kTxnConflict, "txn_conflict")            \
  X(kWalAppend, "wal_append")                \
  X(kWalFsync, "wal_fsync")                  \
  X(kWalLeaderHandoff, "wal_leader_handoff") \
  X(kCheckpointPhase, "checkpoint_phase")    \
  X(kCheckpoint, "checkpoint")               \
  X(kQueryPlan, "query_plan")                \
  X(kQueryExecute, "query_execute")          \
  X(kBlockCacheEvict, "block_cache_evict")   \
  X(kSegmentFreeze, "segment_freeze")        \
  X(kSlowQuery, "slow_query")                \
  X(kRequestBegin, "request_begin")          \
  X(kRequestEnd, "request_end")              \
  X(kCrash, "crash")

enum class EventType : uint16_t {
  kNone = 0,
#define ARCHIS_FR_ENUM(sym, name) sym,
  ARCHIS_FR_EVENT_LIST(ARCHIS_FR_ENUM)
#undef ARCHIS_FR_ENUM
};

/// The snake_case display name ("txn_begin"); "unknown" for kNone or an
/// out-of-range value read from a torn slot.
const char* EventTypeName(EventType type);

/// Whether `b` carries a duration in nanoseconds (rendered as a Chrome
/// "X" complete event instead of an instant): slow_query and every event
/// a metrics::Stage emits (common/instruments.h).
bool EventHasDuration(EventType type);

/// One decoded event. `a` and `b` are type-specific operands:
///   txn_begin            a=txn_id
///   txn_commit           a=txn_id     b=dur_ns       flags=changes
///   txn_abort            a=txn_id                    flags=AbortReason
///   txn_conflict         a=txn_id     b=dur_ns       detail=key
///   wal_append           a=txn_id     b=bytes
///   wal_fsync            a=batch_bytes b=dur_ns      flags=batch_txns
///   wal_leader_handoff   a=batch_txns
///   checkpoint_phase     a=manifest_seq              detail=phase
///   checkpoint           a=manifest_seq b=dur_ns     detail=base|delta
///   query_plan           a=plan_epoch                flags=1 cache hit
///   query_execute        a=rows       b=dur_ns       flags=1 ok
///   block_cache_evict    a=block      b=bytes_freed
///   segment_freeze       a=segno      b=tuples       detail=store
///   slow_query           a=threshold_ns b=dur_ns
///   request_begin        a=request_seq               detail=frame type
///   request_end          a=request_seq b=dur_ns      flags=wire status
///   crash                                            detail=reason
struct Event {
  uint64_t ts_ns = 0;  // steady-clock, comparable across threads
  EventType type = EventType::kNone;
  uint16_t tid = 0;  // recorder thread id (ring index), not the OS tid
  uint32_t flags = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  char detail[17] = {0};  // NUL-terminated, truncated to 16 bytes
};

/// Abort reasons carried in txn_abort's flags (and mirrored into the
/// labeled archis_txn_abort_total{reason=...} counters).
enum class AbortReason : uint32_t {
  kExplicit = 0,
  kConflict = 1,
  kWalPoison = 3,
};
const char* AbortReasonName(AbortReason reason);

/// Appends one event to the calling thread's ring. Wait-free; silently
/// drops the event when the recorder is disabled or the thread pool is
/// exhausted. `detail` is truncated to 16 bytes.
void Record(EventType type, uint64_t a = 0, uint64_t b = 0,
            uint32_t flags = 0, std::string_view detail = {});

/// Recorder kill switch. Defaults to on; ARCHIS_FLIGHT_RECORDER=0 in the
/// environment starts it disabled (the overhead-ablation knob).
bool Enabled();
void SetEnabled(bool on);

/// Drains every claimed ring into one timestamp-sorted vector. Safe to
/// call while other threads keep recording: in-flight slots are detected
/// by their seqlock and skipped.
std::vector<Event> Snapshot();

/// Renders events as Chrome trace_event JSON
/// ({"traceEvents":[...]}), loadable in chrome://tracing / Perfetto.
std::string ToChromeTraceJson(const std::vector<Event>& events);

/// A hook contributing state to crash dumps (the ArchIS facade registers
/// one that renders its active-transaction table). Must be best-effort:
/// it runs on the crash path, so it may only TryLock, never block.
class CrashInfoSource {
 public:
  virtual ~CrashInfoSource() = default;
  /// Appends one JSON value (object or array) describing this source.
  virtual void AppendCrashJson(std::string* out) = 0;
};
void RegisterCrashInfoSource(CrashInfoSource* source);
void UnregisterCrashInfoSource(CrashInfoSource* source);

/// Writes `<dir>/archis-<unix_ms>-<pid>.crashdump` — a JSON object with
/// the crash reason, the drained flight-recorder history, a best-effort
/// metrics exposition and every registered CrashInfoSource — and returns
/// its path ("" if the dump could not be written or a dump is already in
/// progress). `dir` is ARCHIS_CRASHDUMP_DIR, else the working directory.
/// Also usable outside real crashes (recovery_fuzz snapshots one at
/// every injected crash point).
std::string WriteCrashDump(const char* reason);

/// Installs the fatal-signal handler (idempotent). The handler writes a
/// crash dump, restores the default disposition and re-raises, so exit
/// codes and core dumps are unchanged.
void InstallCrashHandler();

/// Test/tool hook: forgets every recorded event (rings stay claimed).
/// Callers must ensure no thread is concurrently recording.
void ResetForTest();

}  // namespace archis::fr

#endif  // ARCHIS_COMMON_FLIGHT_RECORDER_H_
