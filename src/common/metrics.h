// Process-wide metrics registry (counters, gauges, fixed-bucket latency
// histograms) with Prometheus-style text exposition.
//
// The paper's claims are quantitative — query speed of the translated
// SQL/XML path, compression ratio, usefulness-based clustering behaviour —
// so every hot layer (WAL group commit, block cache, page IO, segment
// freezes, the plan executor) publishes into one registry that can be
// dumped on any run (ArchIS::DumpMetrics(), tools/archis-stats), not just
// inside unit tests.
//
// Cost model: an enabled Counter::Inc is one relaxed atomic load (the
// global enable flag) plus one relaxed fetch_add; a disabled one is just
// the load. Histogram::Observe adds a bucket search over a small fixed
// bound table. The process's instruments are declared once in the catalog
// (common/instruments.h), created with the global registry and reached by
// catalog id, so the registry lock is off every hot path.
//
// Thread safety: all instrument mutations are lock-free atomics; creation
// and TextFormat() take the registry mutex.
#ifndef ARCHIS_COMMON_METRICS_H_
#define ARCHIS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"

namespace archis::metrics {

/// Global kill switch, default on. Exists so BM_MetricsOverhead can ablate
/// the instrumentation cost; a disabled instrument still exists and still
/// renders (frozen) in TextFormat().
extern std::atomic<bool> g_enabled;

inline bool Enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

/// Monotonic event count. Wraps modulo 2^64 on overflow (no saturation, no
/// error): consumers must treat it as a modular counter, which is what
/// rate() computations over text exposition do anyway.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    if (Enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (e.g. live tuples in the hot segment).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (Enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (Enabled()) value_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Shared percentile estimate over a cumulative-bucket layout: linear
/// interpolation inside the covering bucket, clamped to the largest
/// finite bound (`buckets` has bounds.size() + 1 entries, the last being
/// +Inf). Histogram::Percentile and WindowedHistogram::Stats both defer
/// here so the interpolation semantics (and their boundary cases) have
/// exactly one implementation.
double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& buckets, double p);

/// Sliding-window histogram: per-second sub-histograms in a 64-slot ring
/// tagged by epoch second, merged on demand into rate + p50/p95/p99 for
/// the trailing 1s/10s/60s windows (DESIGN.md §14).
///
/// Observe is lock-free: find the slot for the current second, lazily
/// rotate it (zero + CAS the epoch tag) when it still holds an older
/// second, then two relaxed fetch_adds. Rotation is monitoring-grade by
/// design: an observation racing the zeroing of its slot can be lost,
/// which smears at most one second of data — never corrupts, never
/// blocks. The clock is injectable so tests drive window edges
/// deterministically.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(std::vector<double> bounds);
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Observe(double v);

  struct WindowStats {
    uint64_t count = 0;
    double rate_per_sec = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  /// Merged view of the trailing `window_secs` seconds (the current
  /// second plus the window_secs - 1 before it). `window_secs` is capped
  /// to the ring depth (64).
  WindowStats Stats(int window_secs) const;

  void Reset();
  /// Injects a seconds clock (steady, monotonic) for deterministic
  /// window-edge tests; nullptr restores the real clock.
  void SetClockForTest(uint64_t (*now_secs)());

 private:
  static constexpr int kSlots = 64;
  struct Slot {
    std::atomic<uint64_t> epoch{0};  // second this slot covers; 0 = empty
    std::atomic<uint64_t> count{0};
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;  // bounds + Inf
  };

  uint64_t NowSecs() const;

  std::vector<double> bounds_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t (*)()> clock_override_{nullptr};
};

/// Fixed-bucket histogram: cumulative counts per upper bound plus an
/// implicit +Inf bucket, a running sum and a total count. Percentiles are
/// estimated by linear interpolation inside the covering bucket (the
/// standard Prometheus histogram_quantile estimate); observations above
/// the largest finite bound clamp to it. A windowed histogram also feeds
/// its WindowedHistogram from the same Observe call.
class Histogram {
 public:
  /// `bounds` are strictly increasing finite upper bounds.
  explicit Histogram(std::vector<double> bounds, bool windowed = false);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);
  /// The sliding-window view, or nullptr for an unwindowed histogram.
  WindowedHistogram* window() const { return window_.get(); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// p in [0, 1]; returns 0 on an empty histogram.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i` (i == bounds().size() is the +Inf bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

  /// "count=12 sum=0.034 p50=1.2e-03 p95=4.1e-03 p99=8.0e-03" — the human
  /// summary archis-stats prints next to the exposition.
  std::string Summary() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::unique_ptr<WindowedHistogram> window_;
};

/// Exponential bucket bounds: start, start*factor, ... (n bounds).
std::vector<double> ExponentialBuckets(double start, double factor, int n);
/// Linear bucket bounds: start, start+step, ... (n bounds).
std::vector<double> LinearBuckets(double start, double step, int n);
/// 1us .. 10s latency bounds (seconds) for IO / query latencies.
std::vector<double> DefaultLatencyBuckets();
/// 64B .. 16MiB size bounds (bytes) for batch / payload sizes.
std::vector<double> DefaultSizeBuckets();

/// Name-keyed instrument registry. Get-or-create returns stable pointers;
/// asking for an existing name as a different instrument kind returns
/// nullptr. Registry::Global() is built from the instrument catalog
/// (common/instruments.h) and then sealed, so a lookup by a catalog name
/// returns the catalog's live instrument and any other name returns
/// nullptr.
///
/// Names may carry a Prometheus label suffix (`x_total{reason="conflict"}`):
/// each labeled variant is its own instrument, and TextFormat emits the
/// HELP/TYPE header once per base name (the part before '{') so the
/// exposition stays well-formed.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every ArchIS layer publishes into, holding
  /// every catalog instrument (defined in instruments.cc).
  static Registry& Global();

  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  /// A non-empty `window_name` gives a newly created histogram a sliding
  /// window, rendered as its own family under that name.
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds,
                          const std::string& window_name = "");

  /// Prometheus text exposition (# HELP / # TYPE, `_bucket{le="..."}` /
  /// `_sum` / `_count` for histograms), instruments sorted by name.
  /// Windowed histograms render as gauge families with window="1s|10s|60s"
  /// and stat="rate|p50|p95|p99" labels.
  std::string TextFormat() const;

  /// Crash-path exposition: never blocks. Returns "" when the registry
  /// mutex is held (e.g. the crashing thread died inside TextFormat).
  std::string TryTextFormat() const;

  /// Zeroes every instrument's value; registrations (and cached call-site
  /// pointers) stay valid. For tests and the bench ablation.
  void ResetValues();

  /// Ends registration: from now on a Get* of a name not yet registered
  /// returns nullptr instead of creating an instrument nothing updates.
  void Seal();

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kWindowed };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    const WindowedHistogram* windowed = nullptr;  ///< owned by a histogram
  };
  Entry* FindOrAdd(const std::string& name, Kind kind,
                   const std::string& help) ARCHIS_REQUIRES(mu_);

  std::string FormatLocked() const ARCHIS_REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kMetricsRegistry};
  std::map<std::string, Entry> entries_ ARCHIS_GUARDED_BY(mu_);
  bool sealed_ ARCHIS_GUARDED_BY(mu_) = false;
};

}  // namespace archis::metrics

#endif  // ARCHIS_COMMON_METRICS_H_
