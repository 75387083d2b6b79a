// The instrument catalog: every metric family and every timed stage the
// process exports, declared once (DESIGN.md §9.1 is rendered from these
// lists and checked by instruments_test).
//
// Call sites reach an instrument by its catalog id —
//
//   metrics::Get(metrics::kPageReads).Inc();
//
// — and time a stage with one RAII `Stage`, which on Close observes the
// stage's histogram (and its sliding window, if the family has one),
// increments the stage's completion counter, appends its flight-recorder
// event carrying the duration, and closes its profile span when a
// trace::Trace is attached. One event is recorded by one call.
//
// Cost: Get() is an index into a table built on first use. An open
// Stage costs one steady_clock read at each end it does not share with an
// adjacent stage (Close returns the end time for the next stage to start
// from); a Stage with no trace, metrics disabled and no live
// flight-recorder event reads no clock at all.
#ifndef ARCHIS_COMMON_INSTRUMENTS_H_
#define ARCHIS_COMMON_INSTRUMENTS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace archis::metrics {

// Counters: X(id, name, help). A name may carry a fixed label set; every
// series of one labeled family repeats the family's help text.
#define ARCHIS_COUNTER_LIST(X)                                                \
  X(kPageReads, "archis_page_reads_total",                                    \
    "Pages read through PageManager::ReadPage")                               \
  X(kPageWrites, "archis_page_writes_total",                                  \
    "Pages pinned for write through PageManager::WritePage")                  \
  X(kPagesAllocated, "archis_pages_allocated_total",                          \
    "Pages allocated across all stores")                                      \
  X(kBlockCacheHits, "archis_block_cache_hits_total",                         \
    "Decompressed-block LRU cache hits across all frozen segments")           \
  X(kBlockCacheMisses, "archis_block_cache_misses_total",                     \
    "Decompressed-block LRU cache misses across all frozen segments")         \
  X(kBlocksDecompressed, "archis_blocks_decompressed_total",                  \
    "BlockZIP blocks inflated (cache misses + uncached fetches)")             \
  X(kBlockDecompressedBytes, "archis_block_decompressed_bytes_total",         \
    "Raw bytes produced by BlockZIP inflation")                               \
  X(kBlocksPrunedByTime, "archis_blocks_pruned_by_time_total",                \
    "Blocks skipped by the temporal zone map before decompression")           \
  X(kWalCommits, "archis_wal_commits_total",                                  \
    "Durable WAL commits acknowledged")                                       \
  X(kWalSyncs, "archis_wal_syncs_total",                                      \
    "WAL leader append+fsync batches issued")                                 \
  X(kWalBytesWritten, "archis_wal_bytes_written_total",                       \
    "Framed bytes appended to the WAL")                                       \
  X(kWalFollowerWaits, "archis_wal_follower_waits_total",                     \
    "Times a committer waited on another thread's in-flight sync instead "    \
    "of leading its own")                                                     \
  X(kWalRecoveries, "archis_wal_recoveries_total",                            \
    "WAL recovery passes run by Open")                                        \
  X(kWalRecoveredItems, "archis_wal_recovered_items_total",                   \
    "Committed transactions and DDL records replayed by recovery")            \
  X(kWalRecoveredBytes, "archis_wal_recovered_bytes",                         \
    "WAL bytes replayed by recovery (suffix past the manifest only)")         \
  X(kCheckpoints, "archis_checkpoints_total",                                 \
    "Checkpoints completed (manual + auto)")                                  \
  X(kCheckpointRows, "archis_checkpoint_rows_total",                          \
    "Rows serialized into checkpoint manifests (every store row and "         \
    "current-table row of each manifest)")                                    \
  X(kCheckpointManifestFallbacks,                                             \
    "archis_checkpoint_manifest_fallbacks_total",                             \
    "Recoveries that found the newest manifest torn and used the previous "   \
    "one")                                                                    \
  X(kSegmentFreezes, "archis_segment_freezes_total",                          \
    "Live segments frozen (usefulness-based clustering events)")              \
  X(kSegmentFrozenTuples, "archis_segment_frozen_tuples_total",               \
    "Tuples moved from live to frozen segments")                              \
  X(kSegmentScans, "archis_segment_scans_total",                              \
    "Segments (live or frozen) visited by store scans")                       \
  X(kExecRowsScanned, "archis_exec_rows_scanned_total",                       \
    "H-table rows scanned by the SQL/XML executor")                           \
  X(kExecRowsJoined, "archis_exec_rows_joined_total",                         \
    "Rows produced by the executor's id-equijoin phase")                      \
  X(kExecSegmentsScanned, "archis_exec_segments_scanned_total",               \
    "Segments visited by SQL/XML plan scans")                                 \
  X(kExecPlans, "archis_exec_plans_total", "SQL/XML plans executed")          \
  X(kExecPlanFailures, "archis_exec_plan_failures_total",                     \
    "SQL/XML plan executions that returned a non-OK status")                  \
  X(kPlannerPlans, "archis_planner_plans_total",                              \
    "Physical plans produced by PlanQuery")                                   \
  X(kPlannerIdIndexPaths, "archis_planner_id_index_paths_total",              \
    "Plan variables routed to the id-index access path")                      \
  X(kPlannerSegmentMergePaths, "archis_planner_segment_merge_paths_total",    \
    "Plan variables routed to the temporal segment merge-scan path")          \
  X(kPlannerMergeBeatsIndex, "archis_planner_merge_beats_index_total",        \
    "Id-restricted variables where the merge-scan was estimated cheaper "     \
    "than the id index (the data-shape-driven plan flip)")                    \
  X(kPlannerAggPushdowns, "archis_planner_agg_pushdowns_total",               \
    "Plans whose aggregate was pushed below the join/buffer pipeline")        \
  X(kPlannerCacheHits, "archis_planner_cache_hits_total",                     \
    "Executions that reused a cached physical plan (same structural key, "    \
    "no intervening mutation)")                                               \
  X(kPlannerCacheMisses, "archis_planner_cache_misses_total",                 \
    "Executions that ran the cost-based planner (cold or stale cache "        \
    "entry)")                                                                 \
  X(kQueriesTranslated, "archis_queries_translated_total",                    \
    "Queries answered by the translated SQL/XML path")                        \
  X(kQueriesNative, "archis_queries_native_total",                            \
    "Queries answered by native evaluation over published H-documents")       \
  X(kQueryFailures, "archis_query_failures_total",                            \
    "Queries that returned a non-OK status on every attempted path")          \
  X(kTxnCommits, "archis_txn_commits_total",                                  \
    "Committed change batches (explicit, ambient and autocommit)")            \
  X(kTxnAborts, "archis_txn_aborts_total",                                    \
    "Aborted change batches (every reason)")                                  \
  X(kTxnAbortExplicit, "archis_txn_abort_total{reason=\"explicit\"}",         \
    "Transaction aborts broken down by reason")                               \
  X(kTxnAbortConflict, "archis_txn_abort_total{reason=\"conflict\"}",         \
    "Transaction aborts broken down by reason")                               \
  X(kTxnAbortWalPoison, "archis_txn_abort_total{reason=\"wal_poison\"}",      \
    "Transaction aborts broken down by reason")                               \
  X(kTxnConflicts, "archis_txn_conflicts_total",                              \
    "Commits rejected by first-committer-wins conflict detection")            \
  X(kChangesCaptured, "archis_changes_captured_total",                        \
    "Change records committed into the H-tables (capture throughput)")        \
  X(kChangesCapturedConflict,                                                 \
    "archis_changes_captured_total{outcome=\"conflict\"}",                    \
    "Change records committed into the H-tables (capture throughput)")        \
  X(kServerRequestsPing, "archis_server_requests_total{type=\"ping\"}",       \
    "Requests received by archisd, by type")                                  \
  X(kServerRequestsQuery, "archis_server_requests_total{type=\"query\"}",     \
    "Requests received by archisd, by type")                                  \
  X(kServerRequestsUpdate, "archis_server_requests_total{type=\"update\"}",   \
    "Requests received by archisd, by type")                                  \
  X(kServerRequestsHttpQuery,                                                 \
    "archis_server_requests_total{type=\"http_query\"}",                      \
    "Requests received by archisd, by type")                                  \
  X(kServerRequestsHttpMetrics,                                               \
    "archis_server_requests_total{type=\"http_metrics\"}",                    \
    "Requests received by archisd, by type")                                  \
  X(kServerShed, "archis_server_shed_total",                                  \
    "Requests shed by admission control (queue full or connection limit)")    \
  X(kServerDeadlineExceeded, "archis_server_deadline_exceeded_total",         \
    "Requests answered with DeadlineExceeded (stale in queue or cancelled "   \
    "mid-execution)")                                                         \
  X(kServerProtocolErrors, "archis_server_protocol_errors_total",             \
    "Malformed frames received (oversized length prefix, unknown type, "      \
    "truncated payload)")                                                     \
  X(kServerConnectionsTotal, "archis_server_connections_total",               \
    "Connections accepted by archisd")

// Gauges: X(id, name, help).
#define ARCHIS_GAUGE_LIST(X)                                                  \
  X(kFrozenSegments, "archis_frozen_segments",                                \
    "Frozen segments currently held across all stores in this process")      \
  X(kServerConnections, "archis_server_connections",                          \
    "Connections currently open")                                             \
  X(kServerQueueDepth, "archis_server_queue_depth",                           \
    "Requests admitted and waiting for a worker")                             \
  X(kServerInFlight, "archis_server_in_flight",                               \
    "Requests admitted and not yet answered")

// Histograms: X(id, name, help, buckets, window). `buckets` is the
// function giving the bucket bounds; `window` names the family its
// sliding 1s/10s/60s view renders as ("" for none), fed by the
// histogram's own Observe. kStageSeconds is the family of the stages
// below that declare no histogram of their own: one series per such
// stage, labeled stage="<name>".
#define ARCHIS_HISTOGRAM_LIST(X)                                              \
  X(kQuerySeconds, "archis_query_seconds",                                    \
    "End-to-end ArchIS::Query latency", DefaultLatencyBuckets,                \
    "archis_query_window_seconds")                                            \
  X(kCommitSecondsOk, "archis_commit_seconds{outcome=\"ok\"}",                \
    "Commit latency (CommitTxn entry to durable) by outcome",                 \
    DefaultLatencyBuckets, "")                                                \
  X(kCommitSecondsConflict, "archis_commit_seconds{outcome=\"conflict\"}",    \
    "Commit latency (CommitTxn entry to durable) by outcome",                 \
    DefaultLatencyBuckets, "")                                                \
  X(kCheckpointSeconds, "archis_checkpoint_seconds",                          \
    "Latency of one checkpoint (capture + install + WAL reset)",              \
    DefaultLatencyBuckets, "")                                                \
  X(kWalFsyncSeconds, "archis_wal_fsync_seconds",                             \
    "Latency of one WAL leader append+fsync batch", DefaultLatencyBuckets,    \
    "archis_fsync_window_seconds")                                            \
  X(kWalSyncBatchBytes, "archis_wal_sync_batch_bytes",                        \
    "Bytes coalesced into one WAL append+fsync batch", DefaultSizeBuckets,    \
    "")                                                                       \
  X(kSegmentFreezeUsefulness, "archis_segment_freeze_usefulness",             \
    "Usefulness ratio U = N_live/N_all observed at freeze time",              \
    UsefulnessBuckets, "")                                                    \
  X(kServerRequestSeconds, "archis_server_request_seconds",                   \
    "Server request latency from admission until the response is ready "      \
    "(queue wait included)",                                                  \
    DefaultLatencyBuckets, "archis_server_request_window")                    \
  X(kStageSeconds, "archis_stage_seconds",                                    \
    "Latency of one query or server stage, by stage", DefaultLatencyBuckets,  \
    "")

// Stages: X(id, name, histogram, event, counter). `event` is the
// flight-recorder event Close appends (kNone for none; its b operand is
// the duration in ns); `counter` is incremented once per Close
// (kNoCounter for none). Sub-query stages feed histograms and spans only,
// so the events a query emits stay one query_execute.
#define ARCHIS_STAGE_LIST(X)                                                  \
  X(kQuery, "query", kQuerySeconds, kQueryExecute, kNoCounter)                \
  X(kParse, "parse", kStageSeconds, kNone, kNoCounter)                        \
  X(kTranslate, "translate", kStageSeconds, kNone, kNoCounter)                \
  X(kExecute, "execute", kStageSeconds, kNone, kNoCounter)                    \
  X(kPlan, "plan", kStageSeconds, kNone, kNoCounter)                          \
  X(kSegmentScan, "segment_scan", kStageSeconds, kNone, kNoCounter)           \
  X(kJoin, "join", kStageSeconds, kNone, kNoCounter)                          \
  X(kNativeEval, "native_eval", kStageSeconds, kNone, kNoCounter)             \
  X(kQueueWait, "queue_wait", kStageSeconds, kNone, kNoCounter)               \
  X(kRequest, "request", kServerRequestSeconds, kRequestEnd, kNoCounter)      \
  X(kCommit, "commit", kCommitSecondsOk, kTxnCommit, kTxnCommits)             \
  X(kCommitConflict, "commit_conflict", kCommitSecondsConflict,               \
    kTxnConflict, kTxnConflicts)                                              \
  X(kWalFsync, "wal_fsync", kWalFsyncSeconds, kWalFsync, kWalSyncs)           \
  X(kCheckpoint, "checkpoint", kCheckpointSeconds, kCheckpoint, kCheckpoints)

#define ARCHIS_CATALOG_ID(id, ...) id,
enum CounterId : uint16_t {
  ARCHIS_COUNTER_LIST(ARCHIS_CATALOG_ID) kNumCounters,
  kNoCounter = kNumCounters,
};
enum GaugeId : uint16_t { ARCHIS_GAUGE_LIST(ARCHIS_CATALOG_ID) kNumGauges };
enum HistogramId : uint16_t {
  ARCHIS_HISTOGRAM_LIST(ARCHIS_CATALOG_ID) kNumHistograms
};
enum class StageId : uint8_t { ARCHIS_STAGE_LIST(ARCHIS_CATALOG_ID) };
#define ARCHIS_CATALOG_COUNT(...) +1
inline constexpr size_t kNumStages = 0 ARCHIS_STAGE_LIST(ARCHIS_CATALOG_COUNT);
#undef ARCHIS_CATALOG_COUNT
#undef ARCHIS_CATALOG_ID

/// The catalog's live instruments (registered in Registry::Global()).
Counter& Get(CounterId id);
Gauge& Get(GaugeId id);
Histogram& Get(HistogramId id);

/// One catalog stage, as declared in ARCHIS_STAGE_LIST.
struct StageInfo {
  const char* name;
  HistogramId histogram;
  fr::EventType event;
  CounterId counter;
};
const StageInfo& Info(StageId id);

/// Times one stage; see the file comment. Destroying a Stage that was
/// never closed records nothing except closing its profile span, so an
/// early error return never counts as a completed stage; an outcome with
/// its own stage (a commit that lost a conflict) closes a Stage of that
/// id opened at the abandoned one's start.
class Stage {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens the stage now (one clock read when timed).
  explicit Stage(StageId id, trace::Trace* trace = nullptr);
  /// Opens the stage at `start`, the end of the adjacent stage before it.
  Stage(StageId id, trace::Trace* trace, Clock::time_point start);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  Clock::time_point start() const { return start_; }
  /// Whether a profile span is open for this stage (notes are kept).
  bool traced() const { return span_ != nullptr; }

  /// Closes the stage now. `a`, `flags` and `detail` are the event's
  /// operands. Returns the end time, for the next adjacent stage.
  Clock::time_point Close(uint64_t a = 0, uint32_t flags = 0,
                          std::string_view detail = {});
  /// Closes the stage at `end`, the start of the adjacent stage after it
  /// (a default-constructed `end` reads the clock).
  Clock::time_point CloseAt(Clock::time_point end, uint64_t a = 0,
                            uint32_t flags = 0, std::string_view detail = {});

  /// Seconds between start and end; 0 until closed (or when untimed).
  double seconds() const { return seconds_; }

  /// Key=value annotations on the profile span; no-ops when untraced.
  void Note(const std::string& key, std::string value);
  void Note(const std::string& key, uint64_t value);

 private:
  const StageId id_;
  trace::Trace* trace_;
  trace::Span* span_ = nullptr;
  bool timed_ = false;
  bool open_ = true;
  Clock::time_point start_{};
  double seconds_ = 0;
};

}  // namespace archis::metrics

#endif  // ARCHIS_COMMON_INSTRUMENTS_H_
