#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>

namespace archis::metrics {

std::atomic<bool> g_enabled{true};

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

// -- Histogram -----------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds, bool windowed)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      window_(windowed ? std::make_unique<WindowedHistogram>(bounds_)
                       : nullptr) {}

void Histogram::Observe(double v) {
  if (!Enabled()) return;
  if (window_ != nullptr) window_->Observe(v);
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
             bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double old = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(old, old + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const {
  return sum_.load(std::memory_order_relaxed);
}

double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& buckets, double p) {
  uint64_t total = 0;
  for (const uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  const double rank = p * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t c = buckets[i];
    if (c > 0 && static_cast<double>(cum + c) >= rank) {
      // Interpolate inside the covering bucket; the +Inf bucket clamps to
      // the largest finite bound.
      if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(c);
      return lower + frac * (upper - lower);
    }
    cum += c;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double Histogram::Percentile(double p) const {
  std::vector<uint64_t> buckets(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return PercentileFromBuckets(bounds_, buckets, p);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  if (window_ != nullptr) window_->Reset();
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu sum=%.6g p50=%.3g p95=%.3g p99=%.3g",
                static_cast<unsigned long long>(count()), sum(),
                Percentile(0.50), Percentile(0.95), Percentile(0.99));
  return buf;
}

// -- WindowedHistogram ---------------------------------------------------------

WindowedHistogram::WindowedHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), slots_(new Slot[kSlots]) {
  for (int i = 0; i < kSlots; ++i) {
    slots_[i].buckets.reset(
        new std::atomic<uint64_t>[bounds_.size() + 1]());
  }
}

uint64_t WindowedHistogram::NowSecs() const {
  uint64_t (*fn)() = clock_override_.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WindowedHistogram::SetClockForTest(uint64_t (*now_secs)()) {
  clock_override_.store(now_secs, std::memory_order_relaxed);
}

void WindowedHistogram::Observe(double v) {
  if (!Enabled()) return;
  const uint64_t sec = NowSecs();
  Slot& slot = slots_[sec % kSlots];
  uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
  if (epoch != sec) {
    // Rotate: zero the stale sub-histogram, then claim the new second.
    // An observation racing this zeroing may be lost (at most one
    // second's smear, documented monitoring-grade semantics).
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      slot.buckets[i].store(0, std::memory_order_relaxed);
    }
    slot.count.store(0, std::memory_order_relaxed);
    slot.epoch.compare_exchange_strong(epoch, sec,
                                       std::memory_order_acq_rel);
    if (slot.epoch.load(std::memory_order_acquire) != sec) return;
  }
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  slot.buckets[i].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
}

WindowedHistogram::WindowStats WindowedHistogram::Stats(
    int window_secs) const {
  WindowStats stats;
  if (window_secs <= 0) return stats;
  if (window_secs > kSlots) window_secs = kSlots;
  const uint64_t now = NowSecs();
  std::vector<uint64_t> merged(bounds_.size() + 1, 0);
  for (int i = 0; i < kSlots; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
    // Window = the current second plus the window_secs - 1 before it.
    if (epoch == 0 || epoch > now ||
        epoch + static_cast<uint64_t>(window_secs) <= now) {
      continue;
    }
    for (size_t j = 0; j <= bounds_.size(); ++j) {
      merged[j] += slot.buckets[j].load(std::memory_order_relaxed);
    }
  }
  for (const uint64_t c : merged) stats.count += c;
  stats.rate_per_sec =
      static_cast<double>(stats.count) / static_cast<double>(window_secs);
  stats.p50 = PercentileFromBuckets(bounds_, merged, 0.50);
  stats.p95 = PercentileFromBuckets(bounds_, merged, 0.95);
  stats.p99 = PercentileFromBuckets(bounds_, merged, 0.99);
  return stats;
}

void WindowedHistogram::Reset() {
  for (int i = 0; i < kSlots; ++i) {
    Slot& slot = slots_[i];
    for (size_t j = 0; j <= bounds_.size(); ++j) {
      slot.buckets[j].store(0, std::memory_order_relaxed);
    }
    slot.count.store(0, std::memory_order_relaxed);
    slot.epoch.store(0, std::memory_order_relaxed);
  }
}

std::vector<double> ExponentialBuckets(double start, double factor, int n) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  double v = start;
  for (int i = 0; i < n; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> LinearBuckets(double start, double step, int n) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(start + step * i);
  return out;
}

std::vector<double> DefaultLatencyBuckets() {
  // 1us .. 10s in a 1-2-5 decade ladder (seconds).
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
          5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.5,  5.0,  10.0};
}

std::vector<double> DefaultSizeBuckets() {
  return ExponentialBuckets(64.0, 4.0, 10);  // 64B .. ~16MiB
}

// -- Registry ------------------------------------------------------------------

Registry::Entry* Registry::FindOrAdd(const std::string& name, Kind kind,
                                     const std::string& help) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    if (sealed_) return nullptr;
    Entry e;
    e.kind = kind;
    e.help = help;
    it = entries_.emplace(name, std::move(e)).first;
  }
  return it->second.kind == kind ? &it->second : nullptr;
}

void Registry::Seal() {
  MutexLock lock(mu_);
  sealed_ = true;
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help) {
  MutexLock lock(mu_);
  Entry* e = FindOrAdd(name, Kind::kCounter, help);
  if (e == nullptr) return nullptr;
  if (e->counter == nullptr) e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help) {
  MutexLock lock(mu_);
  Entry* e = FindOrAdd(name, Kind::kGauge, help);
  if (e == nullptr) return nullptr;
  if (e->gauge == nullptr) e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  std::vector<double> bounds,
                                  const std::string& window_name) {
  MutexLock lock(mu_);
  Entry* e = FindOrAdd(name, Kind::kHistogram, help);
  if (e == nullptr) return nullptr;
  if (e->histogram == nullptr) {
    e->histogram = std::make_unique<Histogram>(std::move(bounds),
                                               !window_name.empty());
    if (!window_name.empty()) {
      Entry* w = FindOrAdd(window_name, Kind::kWindowed,
                           help + " (sliding 1s/10s/60s windows)");
      if (w != nullptr) w->windowed = e->histogram->window();
    }
  }
  return e->histogram.get();
}

namespace {

std::string FormatDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string Registry::FormatLocked() const {
  std::ostringstream os;
  // A labeled family (`x_total{reason="..."}`) gets one HELP/TYPE header
  // for its base name, taken from the first variant encountered.
  std::set<std::string> headered;
  for (const auto& [name, e] : entries_) {
    const size_t brace = name.find('{');
    const std::string base =
        brace == std::string::npos ? name : name.substr(0, brace);
    if (headered.insert(base).second) {
      os << "# HELP " << base << " " << e.help << "\n";
      switch (e.kind) {
        case Kind::kCounter:
          os << "# TYPE " << base << " counter\n";
          break;
        case Kind::kGauge:
        case Kind::kWindowed:
          os << "# TYPE " << base << " gauge\n";
          break;
        case Kind::kHistogram:
          os << "# TYPE " << base << " histogram\n";
          break;
      }
    }
    switch (e.kind) {
      case Kind::kCounter:
        os << name << " " << e.counter->value() << "\n";
        break;
      case Kind::kGauge:
        os << name << " " << e.gauge->value() << "\n";
        break;
      case Kind::kHistogram: {
        // Sample suffixes attach to the base name, with the family's own
        // labels merged into each sample's label set —
        // `x_seconds_bucket{outcome="ok",le="0.1"}`, never
        // `x_seconds{outcome="ok"}_bucket{...}`.
        const std::string inner =
            brace == std::string::npos
                ? ""
                : name.substr(brace + 1, name.size() - brace - 2) + ",";
        const std::string tail =
            inner.empty() ? "" : "{" + name.substr(brace + 1);
        const Histogram& h = *e.histogram;
        uint64_t cum = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cum += h.bucket_count(i);
          os << base << "_bucket{" << inner << "le=\""
             << FormatDouble(h.bounds()[i]) << "\"} " << cum << "\n";
        }
        cum += h.bucket_count(h.bounds().size());
        os << base << "_bucket{" << inner << "le=\"+Inf\"} " << cum << "\n";
        os << base << "_sum" << tail << " " << FormatDouble(h.sum()) << "\n";
        os << base << "_count" << tail << " " << h.count() << "\n";
        break;
      }
      case Kind::kWindowed: {
        for (const int w : {1, 10, 60}) {
          const WindowedHistogram::WindowStats s = e.windowed->Stats(w);
          const std::string prefix =
              name + "{window=\"" + std::to_string(w) + "s\",stat=\"";
          os << prefix << "rate\"} " << FormatDouble(s.rate_per_sec) << "\n";
          os << prefix << "p50\"} " << FormatDouble(s.p50) << "\n";
          os << prefix << "p95\"} " << FormatDouble(s.p95) << "\n";
          os << prefix << "p99\"} " << FormatDouble(s.p99) << "\n";
        }
        break;
      }
    }
  }
  return os.str();
}

std::string Registry::TextFormat() const {
  MutexLock lock(mu_);
  return FormatLocked();
}

std::string Registry::TryTextFormat() const {
  if (!mu_.TryLock()) return "";
  std::string out = FormatLocked();
  mu_.Unlock();
  return out;
}

void Registry::ResetValues() {
  MutexLock lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter: e.counter->Reset(); break;
      case Kind::kGauge: e.gauge->Reset(); break;
      case Kind::kHistogram: e.histogram->Reset(); break;
      case Kind::kWindowed: break;  // reset with its histogram
    }
  }
}

}  // namespace archis::metrics
