#include "common/instruments.h"

namespace archis::metrics {

namespace {

/// Bounds of archis_segment_freeze_usefulness: U = N_live/N_all in 0.05
/// steps.
std::vector<double> UsefulnessBuckets() {
  return LinearBuckets(0.05, 0.05, 20);
}

struct CounterDecl {
  const char* name;
  const char* help;
};
struct HistogramDecl {
  const char* name;
  const char* help;
  std::vector<double> (*buckets)();
  const char* window;
};

#define ARCHIS_CATALOG_DECL(id, ...) {__VA_ARGS__},
constexpr CounterDecl kCounters[] = {ARCHIS_COUNTER_LIST(ARCHIS_CATALOG_DECL)};
constexpr CounterDecl kGauges[] = {ARCHIS_GAUGE_LIST(ARCHIS_CATALOG_DECL)};
constexpr HistogramDecl kHistograms[] = {
    ARCHIS_HISTOGRAM_LIST(ARCHIS_CATALOG_DECL)};
#undef ARCHIS_CATALOG_DECL

#define ARCHIS_STAGE_DECL(id, name, histogram, event, counter) \
  {name, histogram, fr::EventType::event, counter},
constexpr StageInfo kStages[] = {ARCHIS_STAGE_LIST(ARCHIS_STAGE_DECL)};
#undef ARCHIS_STAGE_DECL

/// The global registry with every catalog instrument registered, plus the
/// id-indexed pointers call sites reach them through.
struct Catalog {
  Registry registry;
  Counter* counters[kNumCounters];
  Gauge* gauges[kNumGauges];
  Histogram* histograms[kNumHistograms] = {};
  Histogram* stage_histograms[kNumStages];

  Catalog() {
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters[i] = registry.GetCounter(kCounters[i].name, kCounters[i].help);
    }
    for (size_t i = 0; i < kNumGauges; ++i) {
      gauges[i] = registry.GetGauge(kGauges[i].name, kGauges[i].help);
    }
    for (size_t i = 0; i < kNumHistograms; ++i) {
      if (i == kStageSeconds) continue;  // one series per stage, below
      const HistogramDecl& h = kHistograms[i];
      histograms[i] =
          registry.GetHistogram(h.name, h.help, h.buckets(), h.window);
    }
    for (size_t i = 0; i < kNumStages; ++i) {
      const StageInfo& s = kStages[i];
      const HistogramDecl& family = kHistograms[kStageSeconds];
      stage_histograms[i] =
          s.histogram == kStageSeconds
              ? registry.GetHistogram(std::string(family.name) +
                                          "{stage=\"" + s.name + "\"}",
                                      family.help, family.buckets())
              : histograms[s.histogram];
    }
    registry.Seal();
  }
};

Catalog& TheCatalog() {
  static Catalog* catalog = new Catalog();
  return *catalog;
}

}  // namespace

Registry& Registry::Global() { return TheCatalog().registry; }

Counter& Get(CounterId id) { return *TheCatalog().counters[id]; }
Gauge& Get(GaugeId id) { return *TheCatalog().gauges[id]; }
Histogram& Get(HistogramId id) { return *TheCatalog().histograms[id]; }

const StageInfo& Info(StageId id) { return kStages[static_cast<size_t>(id)]; }

// -- Stage --------------------------------------------------------------------

Stage::Stage(StageId id, trace::Trace* trace)
    : Stage(id, trace, Clock::time_point{}) {}

Stage::Stage(StageId id, trace::Trace* trace, Clock::time_point start)
    : id_(id), trace_(trace), start_(start) {
  const fr::EventType event = Info(id).event;
  timed_ = trace != nullptr || Enabled() ||
           (event != fr::EventType::kNone && fr::Enabled());
  if (!timed_) return;
  if (start_ == Clock::time_point{}) start_ = Clock::now();
  if (trace_ != nullptr) span_ = trace_->OpenSpan(Info(id).name, start_);
}

Stage::~Stage() {
  // Abandoned (an error return): keep the profile tree well formed, record
  // nothing else.
  if (open_ && span_ != nullptr) trace_->CloseSpan(span_, Clock::now());
}

Stage::Clock::time_point Stage::Close(uint64_t a, uint32_t flags,
                                      std::string_view detail) {
  return CloseAt(Clock::time_point{}, a, flags, detail);
}

Stage::Clock::time_point Stage::CloseAt(Clock::time_point end, uint64_t a,
                                        uint32_t flags,
                                        std::string_view detail) {
  if (!open_ || !timed_) return end;
  open_ = false;
  if (end == Clock::time_point{}) end = Clock::now();
  const auto ns = std::chrono::nanoseconds(end - start_).count();
  seconds_ = static_cast<double>(ns) * 1e-9;
  const Catalog& catalog = TheCatalog();
  const size_t i = static_cast<size_t>(id_);
  catalog.stage_histograms[i]->Observe(seconds_);
  if (kStages[i].counter != kNoCounter) {
    catalog.counters[kStages[i].counter]->Inc();
  }
  if (kStages[i].event != fr::EventType::kNone) {
    // archis-lint: allow(trace-event-names) -- the catalog's declared event
    fr::Record(kStages[i].event, a, static_cast<uint64_t>(ns), flags, detail);
  }
  if (span_ != nullptr) trace_->CloseSpan(span_, end);
  return end;
}

void Stage::Note(const std::string& key, std::string value) {
  if (span_ != nullptr) span_->notes.emplace_back(key, std::move(value));
}

void Stage::Note(const std::string& key, uint64_t value) {
  if (span_ != nullptr) Note(key, std::to_string(value));
}

}  // namespace archis::metrics
