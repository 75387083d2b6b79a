// Unit tests for the durable change log: CRC framing and torn-tail
// detection in storage/log_file, record encoding / recovery parsing and
// leader-follower group commit in archis/wal. The concurrency tests are
// the suite run under TSan by scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "archis/archis.h"
#include "archis/wal.h"
#include "storage/log_file.h"

namespace archis::core {
namespace {

using minirel::Tuple;
using minirel::Value;
using storage::AppendFrame;
using storage::AppendLogFile;
using storage::LogFileOptions;
using storage::LogScan;
using storage::ScanLogFile;

Date D(int y, int m, int d) { return Date::FromYmd(y, m, d); }

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

ChangeRecord MakeChange(int64_t id, int64_t salary, Date when) {
  ChangeRecord c;
  c.kind = ChangeKind::kInsert;
  c.relation = "employees";
  c.new_row = Tuple{Value(id), Value("emp" + std::to_string(id)),
                    Value(salary)};
  c.when = when;
  return c;
}

TEST(LogFileTest, FramesRoundTripThroughScan) {
  const std::string path = TempPath("roundtrip.wal");
  LogFileOptions opts;
  opts.path = path;
  auto file = AppendLogFile::Open(opts);
  ASSERT_TRUE(file.ok());
  std::string framed;
  AppendFrame("alpha", &framed);
  AppendFrame("", &framed);
  AppendFrame(std::string(3000, 'x'), &framed);
  ASSERT_TRUE((*file)->Append(framed).ok());
  ASSERT_TRUE((*file)->Sync().ok());

  auto scan = ScanLogFile(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].payload, "alpha");
  EXPECT_EQ(scan->records[1].payload, "");
  EXPECT_EQ(scan->records[2].payload, std::string(3000, 'x'));
  EXPECT_EQ(scan->valid_bytes, framed.size());
}

TEST(LogFileTest, MissingFileScansEmpty) {
  auto scan = ScanLogFile(TempPath("never_created.wal"));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, 0u);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(LogFileTest, TornTailIsDetectedAtEveryTruncationPoint) {
  const std::string path = TempPath("torn.wal");
  std::string framed;
  AppendFrame("first-record", &framed);
  const size_t first = framed.size();
  AppendFrame("second-record", &framed);
  {
    LogFileOptions opts;
    opts.path = path;
    auto file = AppendLogFile::Open(opts);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(framed).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  // Cut the file anywhere inside the second record: the first must still
  // scan, the tail must be flagged torn — never an error.
  for (size_t cut = first; cut < framed.size(); ++cut) {
    {
      std::remove(path.c_str());
      LogFileOptions opts;
      opts.path = path;
      auto file = AppendLogFile::Open(opts);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(framed).ok());
    }
    ASSERT_TRUE(storage::TruncateLogFile(path, cut).ok());
    auto scan = ScanLogFile(path);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut;
    ASSERT_EQ(scan->records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(scan->valid_bytes, first);
    EXPECT_EQ(scan->torn_tail, cut != first) << "cut=" << cut;
  }
}

TEST(LogFileTest, CorruptPayloadByteStopsTheScanAtThatRecord) {
  const std::string path = TempPath("crc.wal");
  std::string framed;
  AppendFrame("first-record", &framed);
  const size_t first = framed.size();
  AppendFrame("second-record", &framed);
  // Flip a payload byte of the second record.
  framed[first + 8 + 3] = static_cast<char>(framed[first + 8 + 3] ^ 0x40);
  {
    LogFileOptions opts;
    opts.path = path;
    auto file = AppendLogFile::Open(opts);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(framed).ok());
  }
  auto scan = ScanLogFile(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, first);
}

TEST(LogFileTest, FaultInjectionTearsTheWriteAndGoesSticky) {
  const std::string path = TempPath("inject.wal");
  std::string framed;
  AppendFrame("doomed-record-payload", &framed);
  LogFileOptions opts;
  opts.path = path;
  opts.fail_after_bytes = 10;  // mid-record
  auto file = AppendLogFile::Open(opts);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->Append(framed).code(), StatusCode::kIOError);
  // Sticky: the handle stays dead.
  EXPECT_EQ((*file)->Append("x").code(), StatusCode::kIOError);
  auto scan = ScanLogFile(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_TRUE(scan->torn_tail);  // the 10-byte prefix is a torn record
}

TEST(WalTest, RecoverReturnsCommittedTxnsAndDdlInLogOrder) {
  const std::string path = TempPath("wal_order.wal");
  WalOptions opts;
  opts.path = path;
  auto wal = Wal::Open(opts);
  ASSERT_TRUE(wal.ok());

  RelationSpec spec;
  spec.name = "employees";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"name", minirel::DataType::kString},
                                 {"salary", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "employees.xml";
  spec.root_tag = "employees";
  spec.entity_tag = "employee";
  ASSERT_TRUE((*wal)->LogCreateRelation(spec, D(1995, 1, 1)).ok());

  const uint64_t t1 = 1;
  ASSERT_TRUE((*wal)
                  ->LogTransaction(t1,
                                   {MakeChange(1, 100, D(1995, 2, 1)),
                                    MakeChange(2, 200, D(1995, 2, 1))},
                                   D(1995, 2, 1))
                  .ok());
  ASSERT_TRUE((*wal)->LogDropRelation("employees", D(1995, 3, 1)).ok());

  auto rec = Wal::Recover(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->torn_tail);
  EXPECT_EQ(rec->max_txn_id, t1);
  ASSERT_EQ(rec->items.size(), 3u);

  const auto* create = std::get_if<WalCreateRelation>(&rec->items[0]);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->spec.name, "employees");
  EXPECT_EQ(create->spec.key_columns, std::vector<std::string>{"id"});
  EXPECT_EQ(create->spec.doc_name, "employees.xml");
  EXPECT_EQ(create->spec.entity_tag, "employee");
  EXPECT_EQ(create->open_date, D(1995, 1, 1));
  ASSERT_EQ(create->spec.schema.num_columns(), 3u);

  const auto* txn = std::get_if<WalCommittedTxn>(&rec->items[1]);
  ASSERT_NE(txn, nullptr);
  EXPECT_EQ(txn->txn_id, t1);
  EXPECT_EQ(txn->commit_date, D(1995, 2, 1));
  ASSERT_EQ(txn->changes.size(), 2u);
  EXPECT_EQ(txn->changes[0].new_row, MakeChange(1, 100, D(1995, 2, 1)).new_row);

  const auto* drop = std::get_if<WalDropRelation>(&rec->items[2]);
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->name, "employees");
  EXPECT_EQ(drop->when, D(1995, 3, 1));
}

TEST(WalTest, TxnTornMidWriteIsNotCommitted) {
  const std::string path = TempPath("wal_torn_txn.wal");
  WalOptions opts;
  opts.path = path;
  auto wal = Wal::Open(opts);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(
      (*wal)->LogTransaction(1, {MakeChange(1, 100, D(1995, 1, 5))},
                             D(1995, 1, 5)).ok());
  auto full = Wal::Recover(path);
  ASSERT_TRUE(full.ok());
  const uint64_t committed_bytes = full->valid_bytes;

  // Reopen with a crash injected inside the second transaction's COMMIT
  // record.
  WalOptions crash = opts;
  crash.fail_after_bytes = 30;
  auto wal2 = Wal::Open(crash);
  ASSERT_TRUE(wal2.ok());
  EXPECT_EQ((*wal2)
                ->LogTransaction(2, {MakeChange(2, 200, D(1995, 2, 5))},
                                 D(1995, 2, 5))
                .code(),
            StatusCode::kIOError);

  auto rec = Wal::Recover(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->torn_tail);
  // The torn COMMIT record is the whole transaction: the valid prefix
  // ends exactly where the first transaction's record does.
  EXPECT_EQ(rec->valid_bytes, committed_bytes);
  ASSERT_EQ(rec->items.size(), 1u);  // only the first txn survives
  EXPECT_EQ(std::get<WalCommittedTxn>(rec->items[0]).txn_id, 1u);
}

// Open and aborted transactions write nothing: after an explicit abort, a
// commit, a conflict abort and another commit, the log holds the schema
// record and exactly the two COMMIT records.
TEST(WalTest, AbortedTransactionsAddNoRecord) {
  const std::string path = TempPath("wal_aborts.wal");
  std::remove(CheckpointPath(path).c_str());
  ArchISOptions opts;
  opts.wal.path = path;
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RelationSpec spec;
  spec.name = "employees";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"name", minirel::DataType::kString},
                                 {"salary", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "employees.xml";
  ASSERT_TRUE((*db)->CreateRelation(spec).ok());
  const Tuple row1 = MakeChange(1, 100, D(1995, 1, 1)).new_row;
  const Tuple row2 = MakeChange(2, 200, D(1995, 1, 1)).new_row;
  const Tuple row3 = MakeChange(3, 300, D(1995, 1, 1)).new_row;

  auto aborted = (*db)->Begin();
  ASSERT_TRUE(aborted.ok());
  ASSERT_TRUE(aborted->Insert("employees", row1).ok());
  ASSERT_TRUE(aborted->Abort().ok());

  auto winner = (*db)->Begin();
  auto loser = (*db)->Begin();
  ASSERT_TRUE(winner.ok() && loser.ok());
  ASSERT_TRUE(winner->Insert("employees", row2).ok());
  ASSERT_TRUE(loser->Insert("employees", row2).ok());
  ASSERT_TRUE(winner->Commit().ok());
  EXPECT_EQ(loser->Commit().code(), StatusCode::kConflict);
  ASSERT_TRUE((*db)->Insert("employees", row3).ok());

  auto scan = ScanLogFile(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 3u);
  for (size_t i = 1; i < scan->records.size(); ++i) {
    const std::string& payload = scan->records[i].payload;
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(static_cast<WalRecordType>(payload[0]), WalRecordType::kCommit);
  }
  auto rec = Wal::Recover(path);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->items.size(), 3u);
  EXPECT_EQ(std::get<WalCommittedTxn>(rec->items[1]).txn_id, winner->id());
  EXPECT_EQ(std::get<WalCommittedTxn>(rec->items[1]).changes.size(), 1u);
  EXPECT_EQ(std::get<WalCommittedTxn>(rec->items[2]).changes[0].new_row,
            row3);
}

TEST(WalConcurrencyTest, GroupCommitCoalescesConcurrentCommitters) {
  const std::string path = TempPath("wal_group.wal");
  WalOptions opts;
  opts.path = path;
  auto wal = Wal::Open(opts);
  ASSERT_TRUE(wal.ok());

  constexpr int kThreads = 8;
  std::atomic<uint64_t> next_id{1};
  constexpr int kPerThread = 24;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &next_id, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id = next_id++;
        Status st = (*wal)->LogTransaction(
            id,
            {MakeChange(static_cast<int64_t>(id), 100 + t, D(1995, 1, 1))},
            D(1995, 1, 1));
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ((*wal)->commit_count(), kThreads * kPerThread);
  EXPECT_GE((*wal)->sync_count(), 1u);
  EXPECT_LE((*wal)->sync_count(), (*wal)->commit_count());

  auto rec = Wal::Recover(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->torn_tail);
  EXPECT_EQ(rec->items.size(),
            static_cast<size_t>(kThreads * kPerThread));
  // Every txn id must be present exactly once.
  std::vector<bool> seen(kThreads * kPerThread + 1, false);
  for (const auto& item : rec->items) {
    const auto& txn = std::get<WalCommittedTxn>(item);
    ASSERT_LT(txn.txn_id, seen.size());
    EXPECT_FALSE(seen[txn.txn_id]);
    seen[txn.txn_id] = true;
  }
}

TEST(WalConcurrencyTest, InjectedCrashFailsEveryConcurrentCommitter) {
  const std::string path = TempPath("wal_group_crash.wal");
  WalOptions opts;
  opts.path = path;
  opts.fail_after_bytes = 600;
  auto wal = Wal::Open(opts);
  ASSERT_TRUE(wal.ok());

  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> next_id{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &failures, &next_id] {
      for (int i = 0; i < 20; ++i) {
        const uint64_t id = next_id++;
        Status st = (*wal)->LogTransaction(
            id, {MakeChange(static_cast<int64_t>(id), 1, D(1995, 1, 1))},
            D(1995, 1, 1));
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kIOError);
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // The log died mid-run: at least one committer saw the failure, and the
  // on-disk prefix still recovers cleanly.
  EXPECT_GT(failures.load(), 0);
  auto rec = Wal::Recover(path);
  ASSERT_TRUE(rec.ok());
  // Every recovered item is a fully committed txn; the torn group batch
  // only shortens the valid prefix.
  for (const auto& item : rec->items) {
    EXPECT_TRUE(std::holds_alternative<WalCommittedTxn>(item));
  }
}

}  // namespace
}  // namespace archis::core
