// Tests for the always-on flight recorder (common/flight_recorder.h):
// concurrent lock-free appends with ring wrap-around, draining while
// writers are live, cross-thread timestamp ordering, Chrome trace JSON
// and `.crashdump` well-formedness (validated by actually parsing them
// with common/json.h), and the slow-query log threshold end to end.
//
// The concurrency tests here are the TSan target for the seqlock: run
// under scripts/check.sh's TSan build, a data race in the ring protocol
// fails tier-1 verification.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "archis/archis.h"
#include "common/flight_recorder.h"
#include "common/json.h"
#include "common/log.h"
#include "minirel/schema.h"
#include "minirel/value.h"

namespace archis {
namespace {

using core::ArchIS;
using core::ArchISOptions;
using core::QueryOptions;
using core::RelationSpec;
using json::Value;

// Events recorded by other tests (or fixture setup) linger in the
// per-thread rings; each test starts from a clean slate.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fr::SetEnabled(true);
    fr::ResetForTest();
  }
  void TearDown() override {
    fr::SetEnabled(true);
    fr::ResetForTest();
  }
};

class LogCapture {
 public:
  LogCapture() {
    logging::SetSink(
        [this](const std::string& line) { lines_.push_back(line); });
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

TEST_F(FlightRecorderTest, RecordAndSnapshotRoundTrip) {
  fr::Record(fr::EventType::kTxnBegin, 42);
  fr::Record(fr::EventType::kTxnCommit, 42, 7, 3);
  fr::Record(fr::EventType::kTxnConflict, 43, 7, 0, "employees/9");
  const std::vector<fr::Event> events = fr::Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Snapshot is timestamp-sorted; one thread's events keep their order.
  EXPECT_EQ(events[0].type, fr::EventType::kTxnBegin);
  EXPECT_EQ(events[0].a, 42u);
  EXPECT_EQ(events[1].type, fr::EventType::kTxnCommit);
  EXPECT_EQ(events[1].b, 7u);
  EXPECT_EQ(events[1].flags, 3u);
  EXPECT_EQ(events[2].type, fr::EventType::kTxnConflict);
  EXPECT_STREQ(events[2].detail, "employees/9");
}

TEST_F(FlightRecorderTest, DetailTruncatesToSixteenBytes) {
  fr::Record(fr::EventType::kSegmentFreeze, 1, 2, 0,
             "a_very_long_store_name_indeed");
  const std::vector<fr::Event> events = fr::Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].detail), "a_very_long_stor");
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsEvents) {
  fr::SetEnabled(false);
  fr::Record(fr::EventType::kTxnBegin, 1);
  EXPECT_TRUE(fr::Snapshot().empty());
  fr::SetEnabled(true);
  fr::Record(fr::EventType::kTxnBegin, 2);
  EXPECT_EQ(fr::Snapshot().size(), 1u);
}

TEST_F(FlightRecorderTest, EventTypeNamesAreSnakeCase) {
  for (uint16_t t = 1; t <= static_cast<uint16_t>(fr::EventType::kCrash);
       ++t) {
    const std::string name =
        fr::EventTypeName(static_cast<fr::EventType>(t));
    ASSERT_FALSE(name.empty());
    EXPECT_GE(name[0], 'a');
    EXPECT_LE(name[0], 'z');
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
    }
  }
  EXPECT_STREQ(fr::EventTypeName(static_cast<fr::EventType>(9999)),
               "unknown");
}

// Each writer thread overfills its own ring several times; the drain
// must survive the wrap and return only fully-published events. Run
// under TSan this is the seqlock's data-race test.
TEST_F(FlightRecorderTest, ConcurrentWritersWithWrapAround) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 10000;  // ring default is 2048: ~5 wraps
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        fr::Record(fr::EventType::kWalAppend,
                   static_cast<uint64_t>(t) * kEventsPerThread + i, i);
      }
    });
  }
  for (auto& w : writers) w.join();
  const std::vector<fr::Event> events = fr::Snapshot();
  // Each ring keeps its most recent `capacity` events; every slot must
  // decode to the one type we wrote (no torn slots survive the drain).
  EXPECT_GT(events.size(), 0u);
  EXPECT_LE(events.size(), static_cast<size_t>(kThreads) * kEventsPerThread);
  for (const fr::Event& ev : events) {
    EXPECT_EQ(ev.type, fr::EventType::kWalAppend);
    EXPECT_EQ(ev.a % kEventsPerThread, ev.b);
  }
  // Per-thread suffix property: the surviving events of each writer are
  // its most recent ones, in order.
  std::map<uint16_t, std::vector<uint64_t>> by_tid;
  for (const fr::Event& ev : events) by_tid[ev.tid].push_back(ev.b);
  for (const auto& [tid, seq] : by_tid) {
    EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end())) << "tid " << tid;
    EXPECT_EQ(seq.back(), static_cast<uint64_t>(kEventsPerThread - 1));
  }
}

// Draining while writers are live must never block them or return a
// half-written slot (the seqlock discard path).
TEST_F(FlightRecorderTest, DrainWhileWriting) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        fr::Record(fr::EventType::kBlockCacheEvict, i, i * 2);
        ++i;
      }
    });
  }
  for (int drain = 0; drain < 50; ++drain) {
    const std::vector<fr::Event> events = fr::Snapshot();
    for (const fr::Event& ev : events) {
      ASSERT_EQ(ev.type, fr::EventType::kBlockCacheEvict);
      ASSERT_EQ(ev.b, ev.a * 2);  // a torn slot would break the pairing
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// Steady-clock timestamps are comparable across threads: an event
// recorded strictly after another thread's last event (enforced with a
// join) must not sort before it.
TEST_F(FlightRecorderTest, TimestampOrderAcrossThreads) {
  std::thread first(
      [] { fr::Record(fr::EventType::kCheckpointPhase, 1, 0, 0, "first"); });
  first.join();
  std::thread second(
      [] { fr::Record(fr::EventType::kCheckpointPhase, 2, 0, 0, "second"); });
  second.join();
  const std::vector<fr::Event> events = fr::Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const fr::Event& x, const fr::Event& y) {
        return x.ts_ns < y.ts_ns;
      }));
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[1].a, 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(FlightRecorderTest, ChromeTraceJsonParsesAndIsWellFormed) {
  fr::Record(fr::EventType::kTxnBegin, 1);
  fr::Record(fr::EventType::kWalFsync, 4096, 1500000, 3);  // duration event
  fr::Record(fr::EventType::kQueryExecute, 10, 2000000, 1);
  fr::Record(fr::EventType::kCheckpointPhase, 5, 0, 0, "install");
  const std::string jsonText = ArchIS::DumpTrace();
  auto parsed = json::Parse(jsonText);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items().size(), 4u);
  for (const Value& ev : events->items()) {
    ASSERT_TRUE(ev.is_object());
    const Value* name = ev.Find("name");
    ASSERT_NE(name, nullptr);
    const Value* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ev.Find("ts"), nullptr);
    if (ph->AsString() == "X") {
      // wal_fsync / query_execute render as complete events with dur.
      ASSERT_NE(ev.Find("dur"), nullptr);
    }
  }
  // The duration events must be the "X" ones.
  EXPECT_EQ(events->items()[1].Find("ph")->AsString(), "X");
  EXPECT_EQ(events->items()[2].Find("ph")->AsString(), "X");
  EXPECT_EQ(events->items()[3].Find("args")->Find("detail")->AsString(),
            "install");
}

TEST_F(FlightRecorderTest, CrashDumpIsParseableJsonEndingInCrashEvent) {
  const auto dir = std::filesystem::temp_directory_path() / "archis_fr_test";
  std::filesystem::create_directories(dir);
  ::setenv("ARCHIS_CRASHDUMP_DIR", dir.string().c_str(), /*overwrite=*/1);
  fr::Record(fr::EventType::kTxnBegin, 77);
  fr::Record(fr::EventType::kTxnCommit, 77, 9, 1);
  const std::string path = fr::WriteCrashDump("unit_test_reason");
  ::unsetenv("ARCHIS_CRASHDUMP_DIR");
  ASSERT_FALSE(path.empty());
  ASSERT_NE(path.find(".crashdump"), std::string::npos);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("reason")->AsString(), "unit_test_reason");
  ASSERT_NE(parsed->Find("unix_ms"), nullptr);
  ASSERT_NE(parsed->Find("pid"), nullptr);
  ASSERT_NE(parsed->Find("metrics"), nullptr);
  const Value* events = parsed->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->items().size(), 3u);
  // The dump stamps the crash itself as the final event.
  EXPECT_EQ(events->items().back().Find("name")->AsString(), "crash");
  EXPECT_EQ(events->items().back().Find("args")->Find("detail")->AsString(),
            "unit_test_reason");
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, CrashDumpCarriesActiveTransactionTable) {
  const auto dir = std::filesystem::temp_directory_path() / "archis_fr_test";
  std::filesystem::create_directories(dir);
  ::setenv("ARCHIS_CRASHDUMP_DIR", dir.string().c_str(), /*overwrite=*/1);
  ArchIS db(ArchISOptions{}, Date::FromYmd(2000, 1, 1));
  RelationSpec spec;
  spec.name = "t";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"v", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "t.xml";
  ASSERT_TRUE(db.CreateRelation(spec).ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      txn->Insert("t", {minirel::Value(int64_t{1}), minirel::Value(int64_t{2})})
          .ok());
  // Dump while the transaction is open: its id must appear in the
  // facade's registered crash-info source.
  const std::string path = fr::WriteCrashDump("open_txn_dump");
  ::unsetenv("ARCHIS_CRASHDUMP_DIR");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value* sources = parsed->Find("sources");
  ASSERT_NE(sources, nullptr);
  ASSERT_TRUE(sources->is_array());
  ASSERT_FALSE(sources->items().empty());
  const Value* txns = sources->items()[0].Find("active_txns");
  ASSERT_NE(txns, nullptr);
  ASSERT_TRUE(txns->is_array());
  ASSERT_EQ(txns->items().size(), 1u);
  ASSERT_TRUE(txn->Commit().ok());
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, SlowQueryLogFiresOnThreshold) {
  ArchIS db(ArchISOptions{}, Date::FromYmd(2000, 1, 1));
  RelationSpec spec;
  spec.name = "t";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"v", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "t.xml";
  ASSERT_TRUE(db.CreateRelation(spec).ok());
  ASSERT_TRUE(
      db.Insert("t", {minirel::Value(int64_t{1}), minirel::Value(int64_t{5})})
          .ok());
  const std::string q =
      "for $v in doc(\"t.xml\")/ts/t/v return $v";
  {
    // Threshold far below any real latency: must log, with the profile.
    LogCapture cap;
    QueryOptions opts;
    opts.slow_query_ms = 1e-6;
    ASSERT_TRUE(db.Query(q, opts).ok());
    bool logged = false;
    for (const std::string& line : cap.lines()) {
      if (line.find("event=query.slow") != std::string::npos) {
        logged = true;
        EXPECT_NE(line.find("threshold_ms"), std::string::npos);
        EXPECT_NE(line.find("profile"), std::string::npos);
      }
    }
    EXPECT_TRUE(logged);
  }
  {
    // 0 disables the slow log outright (and wins over the environment).
    LogCapture cap;
    QueryOptions opts;
    opts.slow_query_ms = 0;
    ASSERT_TRUE(db.Query(q, opts).ok());
    for (const std::string& line : cap.lines()) {
      EXPECT_EQ(line.find("event=query.slow"), std::string::npos) << line;
    }
  }
  {
    // A generous threshold must not fire for a trivial query.
    LogCapture cap;
    QueryOptions opts;
    opts.slow_query_ms = 60000;
    ASSERT_TRUE(db.Query(q, opts).ok());
    for (const std::string& line : cap.lines()) {
      EXPECT_EQ(line.find("event=query.slow"), std::string::npos) << line;
    }
  }
  // The slow run left slow_query + query_execute events in the stream.
  bool saw_slow = false;
  for (const fr::Event& ev : fr::Snapshot()) {
    if (ev.type == fr::EventType::kSlowQuery) saw_slow = true;
  }
  EXPECT_TRUE(saw_slow);
}

TEST_F(FlightRecorderTest, TransactionLifecycleEventsFlow) {
  ArchIS db(ArchISOptions{}, Date::FromYmd(2000, 1, 1));
  RelationSpec spec;
  spec.name = "t";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"v", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "t.xml";
  ASSERT_TRUE(db.CreateRelation(spec).ok());
  fr::ResetForTest();  // drop the CreateRelation-era events
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      txn->Insert("t", {minirel::Value(int64_t{1}), minirel::Value(int64_t{2})})
          .ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto aborted = db.Begin();
  ASSERT_TRUE(aborted.ok());
  ASSERT_TRUE(aborted
                  ->Insert("t", {minirel::Value(int64_t{2}),
                                 minirel::Value(int64_t{3})})
                  .ok());
  ASSERT_TRUE(aborted->Abort().ok());
  bool begin = false, commit = false, abort_seen = false;
  for (const fr::Event& ev : fr::Snapshot()) {
    switch (ev.type) {
      case fr::EventType::kTxnBegin:
        begin = true;
        break;
      case fr::EventType::kTxnCommit:
        commit = true;
        EXPECT_GT(ev.b, 0u);      // commit latency, ns
        EXPECT_EQ(ev.flags, 1u);  // one change captured
        break;
      case fr::EventType::kTxnAbort:
        abort_seen = true;
        EXPECT_EQ(ev.flags,
                  static_cast<uint32_t>(fr::AbortReason::kExplicit));
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(begin);
  EXPECT_TRUE(commit);
  EXPECT_TRUE(abort_seen);
}

TEST_F(FlightRecorderTest, WrongThreadCallIsNotAnAbort) {
  // A call from a thread that does not own the handle is rejected, but
  // the transaction stays open and its owner commits it: no txn_abort.
  ArchIS db(ArchISOptions{}, Date::FromYmd(2000, 1, 1));
  RelationSpec spec;
  spec.name = "t";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"v", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "t.xml";
  ASSERT_TRUE(db.CreateRelation(spec).ok());
  fr::ResetForTest();
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      txn->Insert("t", {minirel::Value(int64_t{1}), minirel::Value(int64_t{2})})
          .ok());
  std::thread intruder([&txn] {
    EXPECT_EQ(txn->Insert("t", {minirel::Value(int64_t{3}),
                                minirel::Value(int64_t{4})})
                  .code(),
              StatusCode::kInvalidArgument);
  });
  intruder.join();
  ASSERT_TRUE(txn->Commit().ok());
  const uint64_t txn_id = txn->id();
  bool committed = false;
  for (const fr::Event& ev : fr::Snapshot()) {
    if (ev.a != txn_id) continue;
    EXPECT_NE(ev.type, fr::EventType::kTxnAbort);
    if (ev.type == fr::EventType::kTxnCommit) committed = true;
  }
  EXPECT_TRUE(committed);
}

}  // namespace
}  // namespace archis
