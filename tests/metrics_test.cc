// Tests for the observability layer: the metrics registry (counters,
// gauges, histograms, exposition), the instrument catalog and its Stage,
// the per-query trace spans, the structured logger, and the end-to-end
// wiring through ArchIS::Query / ArchIS::DumpMetrics on a real workload.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "archis/archis.h"
#include "common/flight_recorder.h"
#include "common/instruments.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "minirel/schema.h"
#include "minirel/value.h"
#include "workload/employee_workload.h"
#include "xml/serializer.h"

namespace archis {
namespace {

using core::ArchIS;
using core::ArchISOptions;
using core::PlanStats;
using core::PlanVar;
using core::QueryOptions;
using core::SqlXmlPlan;

// ---------------------------------------------------------------------------
// Counter / Gauge

TEST(CounterTest, IncrementsAndWrapsModulo2e64) {
  metrics::Counter c;
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Overflow is modular, not saturating: a rate() over text exposition
  // handles wraps, so the counter must too.
  c.Inc(UINT64_MAX - 41);
  EXPECT_EQ(c.value(), 0u);
  c.Inc(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(CounterTest, DisabledCounterIsFrozen) {
  metrics::Counter c;
  c.Inc(3);
  metrics::SetEnabled(false);
  c.Inc(100);
  metrics::SetEnabled(true);
  EXPECT_EQ(c.value(), 3u);
  c.Inc();
  EXPECT_EQ(c.value(), 4u);
}

TEST(CounterTest, ConcurrentIncrementsLoseNothing) {
  metrics::Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIncs);
}

TEST(GaugeTest, SetAndAddBothDirections) {
  metrics::Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
  g.Add(15);
  EXPECT_EQ(g.value(), 0);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketsAreCumulativeWithInfOverflow) {
  metrics::Histogram h({1.0, 2.0, 5.0});
  h.Observe(0.5);   // bucket le=1
  h.Observe(1.0);   // le=1 (upper bound is inclusive)
  h.Observe(1.5);   // le=2
  h.Observe(100.0); // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
}

TEST(HistogramTest, PercentileInterpolatesInsideCoveringBucket) {
  metrics::Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.Observe(15.0);  // all in (10, 20]
  // The covering bucket for every quantile is (10, 20]; interpolation
  // stays inside it.
  EXPECT_GE(h.Percentile(0.50), 10.0);
  EXPECT_LE(h.Percentile(0.50), 20.0);
  EXPECT_GE(h.Percentile(0.99), h.Percentile(0.50));
}

TEST(HistogramTest, PercentileOrderingAcrossBuckets) {
  metrics::Histogram h(metrics::LinearBuckets(1.0, 1.0, 10));
  for (int i = 1; i <= 10; ++i) {
    for (int j = 0; j < 10; ++j) h.Observe(static_cast<double>(i) - 0.5);
  }
  const double p50 = h.Percentile(0.50);
  const double p95 = h.Percentile(0.95);
  const double p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 5.0, 1.0);
  EXPECT_NEAR(p95, 9.5, 1.0);
}

TEST(HistogramTest, EmptyAndOverflowClampBehaviour) {
  metrics::Histogram h({1.0, 2.0});
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  h.Observe(50.0);
  // Everything landed above the largest finite bound: the estimate clamps
  // to that bound rather than inventing mass beyond it.
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 2.0);
}

TEST(HistogramTest, ConcurrentObservePreservesTotals) {
  metrics::Histogram h(metrics::ExponentialBuckets(1.0, 2.0, 8));
  constexpr int kThreads = 8;
  constexpr int kObs = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) h.Observe(1.0 + (t + i) % 7);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kObs);
  uint64_t in_buckets = 0;
  for (size_t i = 0; i <= h.bounds().size(); ++i) in_buckets += h.bucket_count(i);
  EXPECT_EQ(in_buckets, h.count());
}

TEST(HistogramTest, BucketHelpers) {
  const auto exp = metrics::ExponentialBuckets(1e-6, 10.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1e-6);
  EXPECT_NEAR(exp[3], 1e-3, 1e-12);
  const auto lin = metrics::LinearBuckets(0.05, 0.05, 20);
  ASSERT_EQ(lin.size(), 20u);
  EXPECT_NEAR(lin.back(), 1.0, 1e-9);
  // Default ladders must be strictly increasing (lower_bound depends on it).
  for (const auto& bounds :
       {metrics::DefaultLatencyBuckets(), metrics::DefaultSizeBuckets()}) {
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

TEST(HistogramTest, PercentileExactlyOnBucketEdgeReturnsTheBound) {
  // Regression for the shared interpolation (PercentileFromBuckets): when
  // rank * count lands exactly on a bucket's cumulative edge, the estimate
  // must be that bucket's upper bound — not interpolate into (or divide
  // by) the next bucket. Histogram::Percentile and
  // WindowedHistogram::Stats both defer here, so this pins both.
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // 99 observations land <= 1 and one in (2, 4]: the p99 rank (0.99 * 100
  // = 99) is exactly the cumulative count of bucket 0.
  const std::vector<uint64_t> buckets = {99, 0, 1, 0};
  EXPECT_DOUBLE_EQ(metrics::PercentileFromBuckets(bounds, buckets, 0.99),
                   1.0);
  // One rank past the edge jumps to the covering bucket (2, 4].
  EXPECT_GT(metrics::PercentileFromBuckets(bounds, buckets, 0.999), 2.0);
  // A mid-ladder edge behaves the same: p50 of a 50/50 split sits on the
  // first bound.
  EXPECT_DOUBLE_EQ(
      metrics::PercentileFromBuckets({1.0, 2.0}, {50, 50, 0}, 0.50), 1.0);

  metrics::Histogram h(bounds);
  for (int i = 0; i < 99; ++i) h.Observe(0.5);
  h.Observe(3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 1.0);
}

// ---------------------------------------------------------------------------
// WindowedHistogram

// SetClockForTest takes a plain function pointer, so the fake clock lives
// at namespace scope.
std::atomic<uint64_t> g_fake_secs{1000};
uint64_t FakeClock() { return g_fake_secs.load(std::memory_order_relaxed); }

TEST(WindowedHistogramTest, StatsMergeTheTrailingWindow) {
  metrics::WindowedHistogram w(metrics::LinearBuckets(1.0, 1.0, 10));
  g_fake_secs.store(1000);
  w.SetClockForTest(&FakeClock);
  for (int i = 0; i < 100; ++i) w.Observe(4.5);
  const auto s1 = w.Stats(1);
  EXPECT_EQ(s1.count, 100u);
  EXPECT_DOUBLE_EQ(s1.rate_per_sec, 100.0);
  EXPECT_GT(s1.p50, 4.0);
  EXPECT_LE(s1.p50, 5.0);
  EXPECT_LE(s1.p50, s1.p95);
  EXPECT_LE(s1.p95, s1.p99);
  // A wider window sees the same observations at a fraction of the rate.
  const auto s10 = w.Stats(10);
  EXPECT_EQ(s10.count, 100u);
  EXPECT_DOUBLE_EQ(s10.rate_per_sec, 10.0);
}

TEST(WindowedHistogramTest, OldSecondsAgeOutOfTheWindow) {
  metrics::WindowedHistogram w({1.0, 2.0});
  g_fake_secs.store(2000);
  w.SetClockForTest(&FakeClock);
  w.Observe(0.5);
  g_fake_secs.store(2001);
  w.Observe(1.5);
  w.Observe(1.5);
  // 1s window = the current second only; 2s adds the one before it.
  EXPECT_EQ(w.Stats(1).count, 2u);
  EXPECT_EQ(w.Stats(2).count, 3u);
  // Far in the future everything has aged out, even though the ring still
  // physically holds the stale epochs.
  g_fake_secs.store(2100);
  EXPECT_EQ(w.Stats(60).count, 0u);
  EXPECT_DOUBLE_EQ(w.Stats(60).rate_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(w.Stats(60).p99, 0.0);
}

TEST(WindowedHistogramTest, SlotReuseZeroesStaleSubHistogram) {
  metrics::WindowedHistogram w({1.0});
  g_fake_secs.store(3000);
  w.SetClockForTest(&FakeClock);
  for (int i = 0; i < 5; ++i) w.Observe(0.5);
  // 64 seconds later the same ring slot is reclaimed for a new epoch; the
  // stale counts must not bleed into the new second.
  g_fake_secs.store(3064);
  w.Observe(0.5);
  EXPECT_EQ(w.Stats(1).count, 1u);
  EXPECT_EQ(w.Stats(60).count, 1u);
}

TEST(WindowedHistogramTest, SharesBucketEdgePercentileSemantics) {
  // Same distribution as PercentileExactlyOnBucketEdgeReturnsTheBound —
  // the windowed path must agree because the implementation is shared.
  metrics::WindowedHistogram w({1.0, 2.0, 4.0});
  g_fake_secs.store(4000);
  w.SetClockForTest(&FakeClock);
  for (int i = 0; i < 99; ++i) w.Observe(0.5);
  w.Observe(3.0);
  EXPECT_DOUBLE_EQ(w.Stats(1).p99, 1.0);
}

TEST(WindowedHistogramTest, ResetClearsAndRealClockRestores) {
  metrics::WindowedHistogram w({1.0});
  g_fake_secs.store(5000);
  w.SetClockForTest(&FakeClock);
  w.Observe(0.5);
  EXPECT_EQ(w.Stats(1).count, 1u);
  w.Reset();
  EXPECT_EQ(w.Stats(1).count, 0u);
  // nullptr restores the real clock; the observation lands in the actual
  // current second and is visible through the widest window.
  w.SetClockForTest(nullptr);
  w.Observe(0.5);
  EXPECT_EQ(w.Stats(60).count, 1u);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  metrics::Registry reg;
  metrics::Counter* a = reg.GetCounter("requests_total", "help");
  metrics::Counter* b = reg.GetCounter("requests_total", "ignored");
  EXPECT_EQ(a, b);
  a->Inc(5);
  EXPECT_EQ(b->value(), 5u);
}

TEST(RegistryTest, TypeMismatchReturnsNull) {
  metrics::Registry reg;
  reg.GetCounter("x_total", "a counter");
  EXPECT_EQ(reg.GetGauge("x_total", "now a gauge?"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x_total", "or a histogram?", {1.0}), nullptr);
  const std::string text = reg.TextFormat();
  EXPECT_NE(text.find("# TYPE x_total counter"), std::string::npos);
}

TEST(RegistryTest, TextFormatIsWellFormedExposition) {
  metrics::Registry reg;
  reg.GetCounter("b_total", "b counter")->Inc(2);
  reg.GetGauge("a_gauge", "a gauge")->Set(-7);
  auto* h = reg.GetHistogram("lat_seconds", "latency", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(10.0);
  const std::string text = reg.TextFormat();
  // Instruments sort by name: a_gauge before b_total before lat_seconds.
  EXPECT_LT(text.find("a_gauge"), text.find("b_total"));
  EXPECT_LT(text.find("b_total"), text.find("lat_seconds"));
  // Every non-comment line is `name{labels} value`.
  const std::regex line_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9].*$|^# (HELP|TYPE) .*$)");
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
  }
  // Histogram exposition: cumulative buckets, +Inf, sum, count.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2"), std::string::npos);
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(RegistryTest, LabeledFamilySharesOneHeader) {
  // Labeled variants (`x_total{reason="..."}`) are distinct instruments
  // but one exposition family: exactly one HELP/TYPE for the base name.
  metrics::Registry reg;
  reg.GetCounter("abort_total{reason=\"conflict\"}", "aborts by reason")
      ->Inc(2);
  reg.GetCounter("abort_total{reason=\"explicit\"}", "aborts by reason")
      ->Inc(1);
  const std::string text = reg.TextFormat();
  EXPECT_EQ(CountOccurrences(text, "# HELP abort_total "), 1);
  EXPECT_EQ(CountOccurrences(text, "# TYPE abort_total counter"), 1);
  EXPECT_NE(text.find("abort_total{reason=\"conflict\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("abort_total{reason=\"explicit\"} 1"),
            std::string::npos);
}

TEST(RegistryTest, LabeledHistogramMergesLabelsIntoSampleLines) {
  // Histogram sample suffixes attach to the base name with the family's
  // labels merged into each sample's label set — the broken shape
  // `x_seconds{outcome="ok"}_bucket{...}` is not valid exposition.
  metrics::Registry reg;
  auto* ok = reg.GetHistogram("commit_seconds{outcome=\"ok\"}", "commit",
                              {0.1, 1.0});
  reg.GetHistogram("commit_seconds{outcome=\"conflict\"}", "commit",
                   {0.1, 1.0});
  ok->Observe(0.05);
  const std::string text = reg.TextFormat();
  EXPECT_EQ(CountOccurrences(text, "# TYPE commit_seconds histogram"), 1);
  EXPECT_NE(
      text.find("commit_seconds_bucket{outcome=\"ok\",le=\"0.1\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("commit_seconds_bucket{outcome=\"conflict\",le=\"+Inf\"} 0"),
      std::string::npos);
  EXPECT_NE(text.find("commit_seconds_count{outcome=\"ok\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("}_bucket"), std::string::npos);
  EXPECT_EQ(text.find("}_sum"), std::string::npos);
  EXPECT_EQ(text.find("}_count"), std::string::npos);
}

TEST(RegistryTest, WindowedHistogramRendersWindowAndStatLabels) {
  // The window is fed by its histogram's own Observe.
  metrics::Registry reg;
  metrics::Histogram* h =
      reg.GetHistogram("q_seconds", "latency", {1.0}, "q_window_seconds");
  metrics::WindowedHistogram* w = h->window();
  ASSERT_NE(w, nullptr);
  g_fake_secs.store(6000);
  w->SetClockForTest(&FakeClock);
  h->Observe(0.5);
  EXPECT_EQ(h->count(), 1u);
  const std::string text = reg.TextFormat();
  EXPECT_EQ(CountOccurrences(text, "# TYPE q_window_seconds gauge"), 1);
  for (const char* win : {"1s", "10s", "60s"}) {
    for (const char* stat : {"rate", "p50", "p95", "p99"}) {
      const std::string line = std::string("q_window_seconds{window=\"") +
                               win + "\",stat=\"" + stat + "\"}";
      EXPECT_NE(text.find(line), std::string::npos) << "missing " << line;
    }
  }
  EXPECT_NE(text.find("q_window_seconds{window=\"1s\",stat=\"rate\"} 1"),
            std::string::npos);
}

TEST(RegistryTest, TryTextFormatMatchesTextFormatWhenUncontended) {
  // The crash path renders through TryTextFormat; uncontended it must be
  // byte-identical to the blocking exposition (windowed stats aside, so
  // keep the registry windowed-free here).
  metrics::Registry reg;
  reg.GetCounter("t_total", "t")->Inc(3);
  reg.GetGauge("g_gauge", "g")->Set(-1);
  EXPECT_EQ(reg.TryTextFormat(), reg.TextFormat());
  EXPECT_NE(reg.TryTextFormat().find("t_total 3"), std::string::npos);
}

TEST(RegistryTest, ResetValuesKeepsRegistrations) {
  metrics::Registry reg;
  metrics::Counter* c = reg.GetCounter("c_total", "h");
  auto* h = reg.GetHistogram("h_seconds", "h", {1.0});
  c->Inc(9);
  h->Observe(0.5);
  reg.ResetValues();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.GetCounter("c_total", "h"), c);  // same instrument
}

// ---------------------------------------------------------------------------
// Trace

TEST(TraceTest, NullTraceSpansAreNoOps) {
  metrics::Stage stage(metrics::StageId::kParse, nullptr);
  EXPECT_FALSE(stage.traced());
  stage.Note("k", "v");  // must not crash
}

TEST(TraceTest, BuildsNestedTreeWithNotesAndDurations) {
  trace::Trace tr;
  {
    metrics::Stage query(metrics::StageId::kQuery, &tr);
    {
      metrics::Stage parse(metrics::StageId::kParse, &tr);
      parse.Close();
    }
    metrics::Stage exec(metrics::StageId::kExecute, &tr);
    {
      metrics::Stage scan(metrics::StageId::kSegmentScan, &tr);
      scan.Note("table", "employees_salary");
      scan.Note("rows", uint64_t{42});
      scan.Close();
    }
    exec.Close();
    query.Close();
  }
  trace::QueryProfile profile = tr.TakeProfile();
  EXPECT_EQ(profile.root.name, "query");
  ASSERT_EQ(profile.root.children.size(), 2u);
  EXPECT_GE(profile.root.duration_ns, 1u);

  const trace::Span* scan = trace::FindSpan(profile.root, "segment_scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_GE(scan->duration_ns, 1u);
  ASSERT_EQ(scan->notes.size(), 2u);
  EXPECT_EQ(scan->notes[0].first, "table");
  EXPECT_EQ(scan->notes[1].second, "42");
  EXPECT_EQ(trace::FindSpan(profile.root, "nope"), nullptr);

  const std::string rendered = profile.Render();
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("segment_scan"), std::string::npos);
  EXPECT_NE(rendered.find("table=employees_salary"), std::string::npos);
  EXPECT_NE(rendered.find("ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stage

TEST(StageTest, CloseFeedsHistogramWindowCounterAndEvent) {
  metrics::Histogram& hist = metrics::Get(metrics::kCommitSecondsOk);
  metrics::Counter& commits = metrics::Get(metrics::kTxnCommits);
  const uint64_t hist_before = hist.count();
  const uint64_t commits_before = commits.value();
  fr::ResetForTest();
  metrics::Stage stage(metrics::StageId::kCommit);
  stage.Close(/*a=*/77, /*flags=*/3);
  EXPECT_EQ(hist.count(), hist_before + 1);
  EXPECT_EQ(commits.value(), commits_before + 1);
  const std::vector<fr::Event> events = fr::Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, fr::EventType::kTxnCommit);
  EXPECT_EQ(events[0].a, 77u);
  EXPECT_EQ(events[0].flags, 3u);
  EXPECT_GE(static_cast<double>(events[0].b), stage.seconds() * 1e9 - 1);
  EXPECT_TRUE(fr::EventHasDuration(fr::EventType::kTxnCommit));

  // A windowed family's window moves with the same Close.
  metrics::Histogram& query = metrics::Get(metrics::kQuerySeconds);
  ASSERT_NE(query.window(), nullptr);
  const uint64_t window_before = query.window()->Stats(60).count;
  metrics::Stage(metrics::StageId::kQuery).Close();
  EXPECT_EQ(query.window()->Stats(60).count, window_before + 1);
}

TEST(StageTest, AdjacentStagesShareTheirBoundary) {
  metrics::Stage first(metrics::StageId::kParse);
  const auto boundary = first.Close();
  metrics::Stage second(metrics::StageId::kTranslate, nullptr, boundary);
  EXPECT_EQ(second.start(), boundary);
  const auto end = second.Close();
  metrics::Stage outer(metrics::StageId::kExecute, nullptr, first.start());
  EXPECT_EQ(outer.CloseAt(end), end);
  EXPECT_NEAR(outer.seconds(), first.seconds() + second.seconds(), 1e-9);
}

TEST(StageTest, AbandonedStageRecordsNothing) {
  metrics::Histogram& hist = metrics::Get(metrics::kCommitSecondsOk);
  const uint64_t before = hist.count();
  fr::ResetForTest();
  trace::Trace tr;
  {
    metrics::Stage root(metrics::StageId::kQuery, &tr);
    { metrics::Stage abandoned(metrics::StageId::kCommit, &tr); }
    root.Close();
  }
  EXPECT_EQ(hist.count(), before);
  for (const fr::Event& ev : fr::Snapshot()) {
    EXPECT_NE(ev.type, fr::EventType::kTxnCommit);
  }
  // The abandoned stage's span is still closed under its parent.
  const trace::QueryProfile profile = tr.TakeProfile();
  const trace::Span* span = trace::FindSpan(profile.root, "commit");
  ASSERT_NE(span, nullptr);
  EXPECT_GE(span->duration_ns, 1u);
}

TEST(StageTest, UntimedStageReadsNoClock) {
  // Metrics off, no trace and no flight-recorder event: nothing to time.
  metrics::SetEnabled(false);
  metrics::Stage stage(metrics::StageId::kParse);
  EXPECT_EQ(stage.start(), metrics::Stage::Clock::time_point{});
  EXPECT_EQ(stage.Close(), metrics::Stage::Clock::time_point{});
  metrics::SetEnabled(true);
}

TEST(StageTest, StageLatencyIsScrapeablePerStage) {
  const std::string text = metrics::Registry::Global().TextFormat();
  for (const char* stage : {"parse", "translate", "plan", "segment_scan",
                            "join", "native_eval", "queue_wait"}) {
    EXPECT_NE(text.find(std::string("archis_stage_seconds_count{stage=\"") +
                        stage + "\"}"),
              std::string::npos)
        << stage;
  }
}

// ---------------------------------------------------------------------------
// Logger

class LogCapture {
 public:
  LogCapture() {
    logging::SetSink([this](const std::string& line) { lines_.push_back(line); });
  }
  ~LogCapture() {
    logging::SetSink(nullptr);
    logging::SetMinLevel(logging::Level::kWarn);
    logging::SetFormat(logging::Format::kKeyValue);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

TEST(LogTest, KeyValueLineWithQuoting) {
  LogCapture cap;
  logging::SetMinLevel(logging::Level::kInfo);
  logging::Info("test.event")
      .Kv("plain", "simple")
      .Kv("spaced", "two words")
      .Kv("n", 42)
      .Kv("flag", true);
  ASSERT_EQ(cap.lines().size(), 1u);
  const std::string& line = cap.lines()[0];
  EXPECT_NE(line.find("level=info"), std::string::npos);
  EXPECT_NE(line.find("event=test.event"), std::string::npos);
  EXPECT_NE(line.find("plain=simple"), std::string::npos);
  EXPECT_NE(line.find("spaced=\"two words\""), std::string::npos);
  EXPECT_NE(line.find("n=42"), std::string::npos);
  EXPECT_NE(line.find("flag=true"), std::string::npos);
  EXPECT_NE(line.find("ts="), std::string::npos);
}

TEST(LogTest, LevelFilteringDropsBelowMin) {
  LogCapture cap;
  logging::SetMinLevel(logging::Level::kWarn);
  logging::Debug("dropped").Kv("k", 1);
  logging::Info("dropped").Kv("k", 2);
  logging::Warn("kept");
  logging::Error("kept.too");
  ASSERT_EQ(cap.lines().size(), 2u);
  EXPECT_NE(cap.lines()[0].find("kept"), std::string::npos);
  EXPECT_NE(cap.lines()[1].find("level=error"), std::string::npos);
}

TEST(LogTest, JsonFormatEscapes) {
  LogCapture cap;
  logging::SetMinLevel(logging::Level::kInfo);
  logging::SetFormat(logging::Format::kJson);
  logging::Info("json.event").Kv("msg", "a \"quoted\"\nvalue");
  ASSERT_EQ(cap.lines().size(), 1u);
  const std::string& line = cap.lines()[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"event\":\"json.event\""), std::string::npos);
  EXPECT_NE(line.find("\\\"quoted\\\"\\nvalue"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: workload -> freeze -> profiled query -> DumpMetrics

uint64_t GlobalCounterValue(const std::string& name) {
  return metrics::Registry::Global().GetCounter(name, "")->value();
}

TEST(ObservabilityIntegrationTest, ProfiledQueryAndMetricsExposition) {
  ArchISOptions options;
  options.segment.compress = true;
  options.wal.path = std::string(::testing::TempDir()) + "/metrics_test.wal";
  std::remove(options.wal.path.c_str());  // a prior run's log would replay

  workload::WorkloadConfig config;
  config.initial_employees = 30;
  config.years = 4;

  auto opened = ArchIS::Open(options, config.start_date);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ArchIS& db = **opened;

  workload::EmployeeWorkload wl(config);
  auto stats = wl.Generate(&db);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(db.FreezeAll().ok());

  const std::string query =
      "for $s in doc(\"employees.xml\")/employees/employee/"
      "salary[tstart(.) <= xs:date(\"1987-06-01\") and "
      "tend(.) >= xs:date(\"1987-06-01\")] return $s";

  // Cold run warms the block cache so the profiled run records hits.
  QueryOptions qopts;
  ASSERT_TRUE(db.Query(query, qopts).ok());

  qopts.collect_profile = true;
  auto result = db.Query(query, qopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->profile.has_value());

  const trace::Span& root = result->profile->root;
  for (const char* name :
       {"parse", "translate", "execute", "plan", "segment_scan", "join"}) {
    const trace::Span* span = trace::FindSpan(root, name);
    ASSERT_NE(span, nullptr) << "missing span " << name;
    EXPECT_GE(span->duration_ns, 1u) << name;
  }
  // The scan span carries its executor notes.
  EXPECT_EQ(root.name, "query");
  const trace::Span* scan = trace::FindSpan(root, "segment_scan");
  bool has_rows_note = false;
  for (const auto& [k, v] : scan->notes) has_rows_note |= (k == "rows");
  EXPECT_TRUE(has_rows_note);

  // An unprofiled query must not pay for a tree.
  qopts.collect_profile = false;
  auto plain = db.Query(query, qopts);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->profile.has_value());

  const std::string text = ArchIS::DumpMetrics();
  const std::regex nonzero(
      "(archis_wal_fsync_seconds_count|archis_block_cache_hits_total|"
      "archis_page_reads_total|archis_segment_freezes_total|"
      "archis_segment_freeze_usefulness_count|archis_queries_translated_total|"
      "archis_txn_commits_total|archis_changes_captured_total) ([0-9]+)");
  std::map<std::string, uint64_t> seen;
  for (std::sregex_iterator it(text.begin(), text.end(), nonzero), end;
       it != end; ++it) {
    seen[(*it)[1]] = std::stoull((*it)[2]);
  }
  for (const char* name :
       {"archis_wal_fsync_seconds_count", "archis_block_cache_hits_total",
        "archis_page_reads_total", "archis_segment_freezes_total",
        "archis_segment_freeze_usefulness_count",
        "archis_queries_translated_total", "archis_txn_commits_total",
        "archis_changes_captured_total"}) {
    ASSERT_TRUE(seen.count(name)) << name << " absent from exposition";
    EXPECT_GT(seen[name], 0u) << name << " never incremented";
  }
}

TEST(ObservabilityIntegrationTest, FailedPlansStayAttributable) {
  ArchISOptions options;
  ArchIS db(options, Date::FromYmd(1990, 1, 1));

  const uint64_t plans_before = GlobalCounterValue("archis_exec_plans_total");
  const uint64_t failures_before =
      GlobalCounterValue("archis_exec_plan_failures_total");

  SqlXmlPlan plan;
  PlanVar var;
  var.xq_name = "$x";
  var.relation = "no_such_relation";
  plan.vars.push_back(var);

  PlanStats stats;
  auto result = db.Execute(plan, &stats);
  EXPECT_FALSE(result.ok());

  // Satellite fix: the failure still lands in the registry (and any stats
  // gathered before the error stay in `stats`), so failed queries show up
  // in rates instead of vanishing.
  EXPECT_EQ(GlobalCounterValue("archis_exec_plans_total"), plans_before + 1);
  EXPECT_EQ(GlobalCounterValue("archis_exec_plan_failures_total"),
            failures_before + 1);
}

TEST(ObservabilityIntegrationTest, QueryFailureCountsAndLatencyObserved) {
  ArchISOptions options;
  ArchIS db(options, Date::FromYmd(1990, 1, 1));
  const uint64_t failures_before =
      GlobalCounterValue("archis_query_failures_total");
  auto result = db.Query("for $x in ((((", QueryOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(GlobalCounterValue("archis_query_failures_total"),
            failures_before + 1);
}

TEST(ObservabilityIntegrationTest, AbortReasonBreakdownCounters) {
  // Every real abort moves the aggregate counter and exactly one reason
  // series, so after one abort of each reason the two views agree.
  core::RelationSpec spec;
  spec.name = "t";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"v", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "t.xml";
  auto row = [](int64_t id, int64_t v) {
    return minirel::Tuple{minirel::Value(id), minirel::Value(v)};
  };
  const char* const kReasons[] = {
      "archis_txn_abort_total{reason=\"explicit\"}",
      "archis_txn_abort_total{reason=\"conflict\"}",
      "archis_txn_abort_total{reason=\"wal_poison\"}"};
  auto labeled_sum = [&] {
    uint64_t sum = 0;
    for (const char* name : kReasons) sum += GlobalCounterValue(name);
    return sum;
  };
  const uint64_t aggregate_before =
      GlobalCounterValue("archis_txn_aborts_total");
  const uint64_t labeled_before = labeled_sum();
  std::vector<uint64_t> reason_before;
  for (const char* name : kReasons) {
    reason_before.push_back(GlobalCounterValue(name));
  }

  ArchIS db(ArchISOptions{}, Date::FromYmd(1990, 1, 1));
  ASSERT_TRUE(db.CreateRelation(spec).ok());
  ASSERT_TRUE(db.Insert("t", row(1, 1)).ok());
  // Explicit: a transaction that buffered changes is rolled back.
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Insert("t", row(2, 2)).ok());
    ASSERT_TRUE(txn->Abort().ok());
  }
  // Conflict: two transactions update one key; the second commit loses.
  {
    auto first = db.Begin();
    auto second = db.Begin();
    ASSERT_TRUE(first.ok() && second.ok());
    ASSERT_TRUE(first->Update("t", {minirel::Value(int64_t{1})}, row(1, 10))
                    .ok());
    ASSERT_TRUE(second->Update("t", {minirel::Value(int64_t{1})}, row(1, 20))
                    .ok());
    ASSERT_TRUE(first->Commit().ok());
    EXPECT_EQ(second->Commit().code(), StatusCode::kConflict);
  }
  // WAL poison: the log's first write fails, so the commit cannot become
  // durable.
  const std::string wal =
      std::string(::testing::TempDir()) + "/abort_reasons.wal";
  std::remove(wal.c_str());
  {
    ArchISOptions opts;
    opts.wal.path = wal;
    auto created = ArchIS::Open(opts, Date::FromYmd(1990, 1, 1));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE((*created)->CreateRelation(spec).ok());
  }
  {
    ArchISOptions opts;
    opts.wal.path = wal;
    opts.wal.fail_after_bytes = 1;
    auto poisoned = ArchIS::Open(opts, Date::FromYmd(1990, 1, 1));
    ASSERT_TRUE(poisoned.ok()) << poisoned.status().ToString();
    EXPECT_FALSE((*poisoned)->Insert("t", row(3, 3)).ok());
  }
  std::remove(wal.c_str());

  for (size_t i = 0; i < std::size(kReasons); ++i) {
    EXPECT_EQ(GlobalCounterValue(kReasons[i]), reason_before[i] + 1)
        << kReasons[i];
  }
  EXPECT_EQ(GlobalCounterValue("archis_txn_aborts_total") - aggregate_before,
            labeled_sum() - labeled_before);
  // Every labeled series renders under one family header.
  const std::string text = ArchIS::DumpMetrics();
  for (const char* name : kReasons) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace archis
