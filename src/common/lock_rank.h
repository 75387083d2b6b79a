// Compile-time lock-rank registry with debug-build runtime enforcement.
//
// Every named archis::Mutex in src/ is assigned an ordinal from the
// LockRank enum below (archis-lint rule `lock-rank` enforces that the
// declaration carries one). The rule of the hierarchy is simple: a thread
// may only acquire mutexes in strictly increasing rank order. That single
// invariant makes deadlock impossible among ranked locks — a wait cycle
// would need some thread to acquire a lower or equal rank while holding a
// higher one, which the debug assertion below turns into an immediate
// abort with both ranks named.
//
// The ordinals encode the whole-program acquisition order (DESIGN.md
// §7.4): server and facade locks on the outside, the WAL and storage in
// the middle, and the "called from anywhere" leaves — metrics registry
// and log sink — at the top. Gaps of 10 leave room for new locks without
// renumbering.
//
// Enforcement is active whenever NDEBUG is off (the default build here
// compiles with -O2 -g and live asserts), so every ctest run, TSan run,
// and fuzzer sweep doubles as a validation of the hierarchy. Release
// builds with NDEBUG pay nothing.
#ifndef ARCHIS_COMMON_LOCK_RANK_H_
#define ARCHIS_COMMON_LOCK_RANK_H_

#ifndef NDEBUG
#include <cstdio>
#include <cstdlib>
#endif

namespace archis {

/// Acquisition ordinal for each named mutex class. Strictly increasing
/// per thread; kUnranked opts a mutex out of checking (tests, scratch).
enum class LockRank : int {
  kUnranked = 0,
  /// server::ArchisServer::mu_ — listener/session/worker lifecycle state
  /// (connection table, stop flag). Outermost of all: request handling
  /// acquires the request queue and then facade locks inside it.
  kServerState = 1,
  /// server::RequestQueue::mu_ — the bounded admission queue. Held only
  /// for push/pop bookkeeping; never across a facade call.
  kServerQueue = 2,
  /// ArchIS::checkpoint_mu_ — serializes whole checkpoints (capture +
  /// manifest install + WAL truncation) against each other. Outermost
  /// facade lock: a checkpoint acquires the commit lock inside it.
  kFacadeCheckpoint = 3,
  /// ArchIS::commit_mu_ — the commit lock: write-set validation,
  /// current-table apply, H-table archive and WAL enqueue of one
  /// committing transaction, plus DML reads of the current tables.
  /// Everything the write path touches (plan cache, WAL, stores) ranks
  /// above it.
  kFacadeCommit = 5,
  /// ArchIS::plan_cache_mu_ — facade plan-cache lookup/insert/epoch bump.
  kFacadePlanCache = 10,
  /// Wal::mu_ — group-commit leader/follower handoff.
  kWal = 20,
  /// DocumentStore::mu_ — stored-document map.
  kDocumentStore = 50,
  /// PageManager::mu_ — page directory.
  kPageManager = 60,
  /// BlobStore::CacheShard::mu — decompressed-block LRU shard.
  kBlobCacheShard = 70,
  /// metrics::Registry::mu_ — metric get-or-create (reached from under
  /// most other locks via first-call function-local-static caching).
  kMetricsRegistry = 80,
  /// logging SinkHolder::mu — the innermost lock; Emit() may be called
  /// while holding anything else, so nothing may be acquired under it.
  kLogSink = 90,
};

/// Human-readable name of a rank ("kWal", ...).
inline const char* LockRankName(LockRank r) {
  switch (r) {
    case LockRank::kUnranked:        return "kUnranked";
    case LockRank::kServerState:     return "kServerState";
    case LockRank::kServerQueue:     return "kServerQueue";
    case LockRank::kFacadeCheckpoint: return "kFacadeCheckpoint";
    case LockRank::kFacadeCommit:    return "kFacadeCommit";
    case LockRank::kFacadePlanCache: return "kFacadePlanCache";
    case LockRank::kWal:             return "kWal";
    case LockRank::kDocumentStore:   return "kDocumentStore";
    case LockRank::kPageManager:     return "kPageManager";
    case LockRank::kBlobCacheShard:  return "kBlobCacheShard";
    case LockRank::kMetricsRegistry: return "kMetricsRegistry";
    case LockRank::kLogSink:         return "kLogSink";
  }
  return "kUnknown";
}

namespace lock_rank {

#ifndef NDEBUG

namespace internal {

/// Per-thread stack of held ranked locks. Fixed capacity: the hierarchy
/// is 11 levels deep, so 32 simultaneous ranked locks on one thread means
/// something is already very wrong.
struct ThreadLockStack {
  static constexpr int kCapacity = 32;
  LockRank held[kCapacity];
  int depth = 0;
};

inline ThreadLockStack& Tls() {
  thread_local ThreadLockStack stack;
  return stack;
}

}  // namespace internal

/// Aborts if acquiring `r` now would violate rank monotonicity. Called
/// *before* blocking on the native mutex so the report fires instead of
/// the deadlock it predicts.
inline void CheckAcquire(LockRank r) {
  if (r == LockRank::kUnranked) return;
  const internal::ThreadLockStack& t = internal::Tls();
  if (t.depth == 0) return;
  const LockRank top = t.held[t.depth - 1];
  if (static_cast<int>(r) > static_cast<int>(top)) return;
  // The logger itself holds the highest rank, so it may be the very lock
  // being violated here; report on raw stderr and die.
  // archis-lint: allow(raw-logging) -- crash-path diagnostic, logger unusable
  std::fprintf(stderr,
               "lock-rank violation: acquiring %s (rank %d) while holding "
               "%s (rank %d); acquisition order must be strictly "
               "increasing (see src/common/lock_rank.h / DESIGN.md §7.4)\n",
               LockRankName(r), static_cast<int>(r), LockRankName(top),
               static_cast<int>(top));
  std::abort();
}

/// Records a successful acquisition of `r` on this thread.
inline void NoteAcquired(LockRank r) {
  if (r == LockRank::kUnranked) return;
  internal::ThreadLockStack& t = internal::Tls();
  if (t.depth < internal::ThreadLockStack::kCapacity) {
    t.held[t.depth] = r;
  }
  ++t.depth;
}

/// Records release of `r`: pops the most recent matching entry (locks are
/// overwhelmingly LIFO via MutexLock, but the WAL leader handoff releases
/// manually, so tolerate out-of-order release).
inline void NoteReleased(LockRank r) {
  if (r == LockRank::kUnranked) return;
  internal::ThreadLockStack& t = internal::Tls();
  if (t.depth > internal::ThreadLockStack::kCapacity) {
    --t.depth;  // overflowed entries were not recorded
    return;
  }
  for (int i = t.depth - 1; i >= 0; --i) {
    if (t.held[i] == r) {
      for (int j = i; j + 1 < t.depth; ++j) t.held[j] = t.held[j + 1];
      --t.depth;
      return;
    }
  }
  // Releasing a rank we never saw acquired: ignore (can only happen if
  // the stack overflowed past capacity above).
}

/// Number of ranked locks currently held by this thread (test hook).
inline int HeldDepth() { return internal::Tls().depth; }

#else  // NDEBUG: enforcement compiles away entirely.

inline void CheckAcquire(LockRank) {}
inline void NoteAcquired(LockRank) {}
inline void NoteReleased(LockRank) {}
inline int HeldDepth() { return 0; }

#endif

}  // namespace lock_rank
}  // namespace archis

#endif  // ARCHIS_COMMON_LOCK_RANK_H_
