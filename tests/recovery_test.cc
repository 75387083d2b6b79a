// Transactional write path and crash recovery, end to end.
//
// The matrix test is the PR's central correctness argument: a scripted
// workload runs against a WAL-backed instance with a crash injected at
// every record boundary and mid-record; a shadow instance receives only
// the units the primary reported durable. Reopening the crashed instance
// must reproduce the shadow's H-documents byte for byte — committed means
// recovered, uncommitted means absent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <thread>

#include "archis/checkpoint.h"
#include "common/metrics.h"
#include "storage/log_file.h"
#include "storage/page.h"
#include "workload/scripted_dml.h"
#include "xml/serializer.h"

namespace archis::core {
namespace {

using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;
using minirel::Value;
using workload::RunScriptedDml;
using workload::ScriptedDmlConfig;

Date D(int y, int m, int d) { return Date::FromYmd(y, m, d); }

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  // Checkpoint artifacts outlive the WAL file; a stale manifest from a
  // previous test-binary run must not leak into this one's recovery.
  std::remove(CheckpointPath(path).c_str());
  std::remove(CheckpointPrevPath(path).c_str());
  std::remove(CheckpointTmpPath(path).c_str());
  return path;
}

RelationSpec EmpSpec() {
  RelationSpec spec;
  spec.name = "employees";
  spec.schema = Schema({{"id", DataType::kInt64},
                        {"name", DataType::kString},
                        {"salary", DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "employees.xml";
  return spec;
}

Tuple Emp(int64_t id, const std::string& name, int64_t salary) {
  return Tuple{Value(id), Value(name), Value(salary)};
}

/// Unwraps ArchIS::Begin into a named Transaction, failing the test on a
/// refused admission.
#define BEGIN_TXN(var, db)                                    \
  auto var##_result = (db)->Begin();                          \
  ASSERT_TRUE(var##_result.ok())                              \
      << var##_result.status().ToString();                    \
  Transaction var = std::move(*var##_result)

/// Comparison key for recovery equivalence (shared with recovery_fuzz).
std::string AllHistories(ArchIS* db) {
  return workload::SerializeAllHistories(db);
}

/// Every tstart attribute value in the tree.
std::vector<std::string> CollectTstarts(const xml::XmlNodePtr& node) {
  std::vector<std::string> out;
  std::function<void(const xml::XmlNodePtr&)> walk =
      [&](const xml::XmlNodePtr& n) {
        if (auto t = n->Attr("tstart")) out.push_back(*t);
        for (const auto& child : n->ChildElements()) walk(child);
      };
  walk(node);
  return out;
}

TEST(TransactionTest, ExplicitBatchCommitsAtOneInstant) {
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  ASSERT_TRUE(db.AdvanceClock(D(1995, 4, 2)).ok());
  BEGIN_TXN(txn, &db);
  ASSERT_TRUE(txn.Insert("employees", Emp(1, "Ann", 100)).ok());
  ASSERT_TRUE(txn.Insert("employees", Emp(2, "Bob", 200)).ok());
  ASSERT_TRUE(txn.Update("employees", {Value(int64_t{1})},
                         Emp(1, "Ann", 150)).ok());
  EXPECT_EQ(txn.pending(), 3u);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.active());

  auto doc = db.PublishHistory("employees");
  ASSERT_TRUE(doc.ok());
  // Every version interval under the root (whose own tstart is the
  // relation-open date) starts at the commit instant.
  size_t versions = 0;
  for (const auto& entity : (*doc)->ChildElements()) {
    for (const std::string& t : CollectTstarts(entity)) {
      EXPECT_EQ(t, D(1995, 4, 2).ToString());
      ++versions;
    }
  }
  EXPECT_GE(versions, 3u);
}

TEST(TransactionTest, AdvanceClockPermittedWhileATxnIsOpen) {
  // Open transactions no longer pin the clock: their changes are stamped
  // at the clock value of the commit instant, so a clock advance between
  // Begin and Commit simply moves the batch's timestamp forward.
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  {
    BEGIN_TXN(txn, &db);
    ASSERT_TRUE(txn.Insert("employees", Emp(1, "Ann", 100)).ok());
    EXPECT_TRUE(db.AdvanceClock(D(1995, 2, 1)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // The batch committed at the advanced clock, not at Begin's.
  auto snap_before = db.Snapshot("employees", D(1995, 1, 15));
  ASSERT_TRUE(snap_before.ok());
  EXPECT_TRUE(snap_before->empty());
  auto snap_after = db.Snapshot("employees", D(1995, 2, 1));
  ASSERT_TRUE(snap_after.ok());
  EXPECT_EQ(snap_after->size(), 1u);
  // Backwards moves are still rejected.
  EXPECT_EQ(db.AdvanceClock(D(1995, 1, 15)).code(),
            StatusCode::kInvalidArgument);
}

TEST(TransactionTest, AbortDiscardsTheBatchWithoutApplyingAnything) {
  // Deferred apply: buffered DML never touches the current tables or the
  // H-tables, so Abort is a pure discard — no undo pass.
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  ASSERT_TRUE(db.Insert("employees", Emp(1, "Ann", 100)).ok());
  ASSERT_TRUE(db.AdvanceClock(D(1995, 2, 1)).ok());
  auto doc_before = db.PublishHistory("employees");
  ASSERT_TRUE(doc_before.ok());

  BEGIN_TXN(txn, &db);
  ASSERT_TRUE(txn.Insert("employees", Emp(2, "Bob", 200)).ok());
  ASSERT_TRUE(txn.Update("employees", {Value(int64_t{1})},
                         Emp(1, "Ann", 999)).ok());
  ASSERT_TRUE(txn.Delete("employees", {Value(int64_t{1})}).ok());
  ASSERT_TRUE(txn.Abort().ok());

  // Current table is back to exactly one row, the original Ann.
  auto table = db.current_db().catalog().GetTable("employees");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->RowCount(), 1u);
  auto doc_after = db.PublishHistory("employees");
  ASSERT_TRUE(doc_after.ok());
  EXPECT_EQ(xml::Serialize(*doc_before), xml::Serialize(*doc_after));
}

TEST(TransactionTest, DestructorAbortsAnUncommittedBatch) {
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  {
    BEGIN_TXN(txn, &db);
    ASSERT_TRUE(txn.Insert("employees", Emp(1, "Ann", 100)).ok());
  }
  auto table = db.current_db().catalog().GetTable("employees");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->RowCount(), 0u);
  // The destructor released the admission slot.
  EXPECT_TRUE(db.AdvanceClock(D(1995, 2, 1)).ok());
}

TEST(TransactionTest, FinishedHandleRejectsFurtherUse) {
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  BEGIN_TXN(txn, &db);
  ASSERT_TRUE(txn.Insert("employees", Emp(1, "Ann", 100)).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(txn.Insert("employees", Emp(2, "Bob", 200)).code(),
            StatusCode::kAborted);
  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  EXPECT_EQ(txn.Abort().code(), StatusCode::kAborted);
}

TEST(TransactionTest, AmbientUpdateLogBatchBuffersUntilCommit) {
  ArchISOptions opts;
  opts.capture_mode = CaptureMode::kUpdateLog;
  ArchIS db(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  ASSERT_TRUE(db.Insert("employees", Emp(1, "Ann", 100)).ok());
  // The ambient batch may span clock advances, keeping per-statement dates.
  ASSERT_TRUE(db.AdvanceClock(D(1995, 6, 1)).ok());
  ASSERT_TRUE(db.Update("employees", {Value(int64_t{1})},
                        Emp(1, "Ann", 150)).ok());
  EXPECT_EQ(db.pending_changes(), 2u);
  // Nothing archived yet.
  auto early = db.Snapshot("employees", D(1995, 3, 1));
  ASSERT_TRUE(early.ok());
  EXPECT_TRUE(early->empty());

  ASSERT_TRUE(db.Commit().ok());
  EXPECT_EQ(db.pending_changes(), 0u);
  // Per-statement dates survived: the insert archived at Jan 1.
  auto snap = db.Snapshot("employees", D(1995, 3, 1));
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ((*snap)[0], Emp(1, "Ann", 100));
}

TEST(TransactionTest, ReadYourOwnWritesThroughTheOverlay) {
  // A transaction sees its own buffered writes: inserting a key twice in
  // one batch is AlreadyExists, updating a buffered insert works, and a
  // buffered delete makes the key invisible to later statements.
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  BEGIN_TXN(txn, &db);
  ASSERT_TRUE(txn.Insert("employees", Emp(1, "Ann", 100)).ok());
  EXPECT_EQ(txn.Insert("employees", Emp(1, "Ann", 100)).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(txn.Update("employees", {Value(int64_t{1})},
                         Emp(1, "Ann", 150)).ok());
  ASSERT_TRUE(txn.Delete("employees", {Value(int64_t{1})}).ok());
  EXPECT_EQ(txn.Update("employees", {Value(int64_t{1})},
                       Emp(1, "Ann", 200)).code(),
            StatusCode::kNotFound);
  // Re-inserting a key the batch deleted is allowed again.
  ASSERT_TRUE(txn.Insert("employees", Emp(1, "Ann", 300)).ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto snap = db.Snapshot("employees", D(1995, 1, 1));
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ((*snap)[0], Emp(1, "Ann", 300));
}

TEST(TransactionTest, CommitApplyFollowsRowsTheBatchMoves) {
  // Each statement's change lands where the previous one left the row: a
  // grown update relocates it, a delete and re-insert gives it a new slot.
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  for (int64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(db.Insert("employees", Emp(id, "E", 100 * id)).ok());
  }
  ASSERT_TRUE(db.AdvanceClock(D(1995, 2, 1)).ok());
  BEGIN_TXN(txn, &db);
  const std::string grown(300, 'x');  // no longer fits its slot
  ASSERT_TRUE(txn.Update("employees", {Value(int64_t{2})},
                         Emp(2, grown, 210)).ok());
  ASSERT_TRUE(txn.Update("employees", {Value(int64_t{2})},
                         Emp(2, grown + "y", 220)).ok());
  ASSERT_TRUE(txn.Delete("employees", {Value(int64_t{3})}).ok());
  ASSERT_TRUE(txn.Insert("employees", Emp(3, "F", 330)).ok());
  ASSERT_TRUE(txn.Update("employees", {Value(int64_t{3})},
                         Emp(3, "G", 340)).ok());
  ASSERT_TRUE(txn.Commit().ok());

  auto table = db.current_db().catalog().GetTable("employees");
  ASSERT_TRUE(table.ok());
  std::map<int64_t, Tuple> rows;
  ASSERT_TRUE((*table)->Scan([&](const storage::RecordId&, const Tuple& t) {
    EXPECT_TRUE(rows.emplace(t.at(0).AsInt(), t).second) << t.ToString();
    return true;
  }).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], Emp(1, "E", 100));
  EXPECT_EQ(rows[2], Emp(2, grown + "y", 220));
  EXPECT_EQ(rows[3], Emp(3, "G", 340));
  auto snap = db.Snapshot("employees", D(1995, 2, 1));
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 3u);
}

TEST(TransactionTest, CommitAfterADropLooksRowsUp) {
  // A drop frees the table's pages and the next relation created takes
  // them back, so a record id a transaction found before the drop can name
  // another relation's row. The commit must not write through it.
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  auto only_row = [&](const std::string& name, storage::RecordId* rid,
                      Tuple* row) {
    auto table = db.current_db().catalog().GetTable(name);
    ASSERT_TRUE(table.ok());
    int rows = 0;
    ASSERT_TRUE((*table)->Scan([&](const storage::RecordId& r,
                                   const Tuple& t) {
      *rid = r;
      *row = t;
      ++rows;
      return true;
    }).ok());
    ASSERT_EQ(rows, 1);
  };
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  ASSERT_TRUE(db.Insert("employees", Emp(1, "A", 100)).ok());
  storage::RecordId dropped_rid;
  Tuple row;
  only_row("employees", &dropped_rid, &row);
  BEGIN_TXN(txn, &db);
  ASSERT_TRUE(txn.Update("employees", {Value(int64_t{1})},
                         Emp(1, "A", 150)).ok());
  ASSERT_TRUE(db.DropRelation("employees").ok());
  RelationSpec staff = EmpSpec();
  staff.name = "staff";
  staff.doc_name = "staff.xml";
  ASSERT_TRUE(db.CreateRelation(staff).ok());
  ASSERT_TRUE(db.Insert("staff", Emp(2, "B", 200)).ok());
  storage::RecordId staff_rid;
  only_row("staff", &staff_rid, &row);
  ASSERT_EQ(staff_rid, dropped_rid);  // the freed page was reused
  // The commit fails instead of overwriting the staff row in that slot.
  EXPECT_EQ(txn.Commit().code(), StatusCode::kConflict);
  only_row("staff", &staff_rid, &row);
  EXPECT_EQ(row, Emp(2, "B", 200));
}

TEST(RecoveryTest, RefusedRecreateOfADroppedRelationLeavesNoTable) {
  // A dropped relation's name stays archived. Re-creating it must fail
  // before a current table exists: a leftover table would take logged
  // inserts that no recovery can replay.
  const std::string path = TempPath("recreate_dropped.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  std::string before;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE((*db)->Insert("employees", Emp(1, "Ann", 100)).ok());
    ASSERT_TRUE((*db)->DropRelation("employees").ok());
    EXPECT_EQ((*db)->CreateRelation(EmpSpec()).code(),
              StatusCode::kAlreadyExists);
    EXPECT_FALSE((*db)->Insert("employees", Emp(2, "Bob", 200)).ok());
    before = AllHistories(db->get());
  }
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), before);
}

TEST(TransactionTest, CommitToADroppedRelationKeepsTheLogRecoverable) {
  // The relation a transaction wrote to is dropped before it commits. The
  // commit aborts before its COMMIT frame reaches the log: a logged commit
  // whose changes cannot apply would fail every later recovery.
  const std::string path = TempPath("commit_after_drop.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  RelationSpec staff = EmpSpec();
  staff.name = "staff";
  staff.doc_name = "staff.xml";
  std::string before;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE((*db)->Insert("employees", Emp(1, "Ann", 100)).ok());
    BEGIN_TXN(txn, db->get());
    ASSERT_TRUE(txn.Insert("employees", Emp(2, "Bob", 200)).ok());
    ASSERT_TRUE((*db)->DropRelation("employees").ok());
    EXPECT_EQ(txn.Commit().code(), StatusCode::kConflict);
    // Later durable work syncs whatever the failed commit left queued.
    ASSERT_TRUE((*db)->CreateRelation(staff).ok());
    ASSERT_TRUE((*db)->Insert("staff", Emp(3, "Cay", 300)).ok());
    before = AllHistories(db->get());
  }
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), before);
}

TEST(TransactionTest, FailedApplyLeavesNoLogRecord) {
  // A row too large for a page passes DML validation but fails at commit
  // apply. The COMMIT record is enqueued only after every change applied,
  // so the log holds nothing of it and every later recovery succeeds.
  const std::string path = TempPath("failed_apply.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  std::string before;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE((*db)->Insert("employees", Emp(1, "Ann", 100)).ok());
    const Status st = (*db)->Insert(
        "employees", Emp(2, std::string(2 * storage::kPageSize, 'x'), 200));
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
    // Later durable work syncs whatever the failed commit left queued.
    ASSERT_TRUE((*db)->Insert("employees", Emp(3, "Cay", 300)).ok());
    before = AllHistories(db->get());
  }
  auto rec = Wal::Recover(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->items.size(), 3u);  // CREATE, Ann's and Cay's commits
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), before);
}

TEST(TransactionTest, FirstCommitterWinsOnOverlappingWriteSets) {
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  ASSERT_TRUE(db.Insert("employees", Emp(1, "Ann", 100)).ok());
  ASSERT_TRUE(db.Insert("employees", Emp(2, "Bob", 200)).ok());

  // Overlap on key 1: the second committer loses.
  {
    BEGIN_TXN(a, &db);
    BEGIN_TXN(b, &db);
    ASSERT_TRUE(a.Update("employees", {Value(int64_t{1})},
                         Emp(1, "Ann", 111)).ok());
    ASSERT_TRUE(b.Update("employees", {Value(int64_t{1})},
                         Emp(1, "Ann", 122)).ok());
    ASSERT_TRUE(a.Commit().ok());
    Status st = b.Commit();
    EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();
    // The conflict message names the contested key.
    EXPECT_NE(st.message().find("employees(1)"), std::string::npos)
        << st.ToString();
  }
  auto snap = db.Snapshot("employees", D(1995, 1, 1));
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)[0], Emp(1, "Ann", 111));  // the loser applied nothing

  // Disjoint write sets: both committers win, and the clock may advance
  // between their commits while both are still open.
  {
    BEGIN_TXN(a, &db);
    BEGIN_TXN(b, &db);
    ASSERT_TRUE(a.Update("employees", {Value(int64_t{1})},
                         Emp(1, "Ann", 131)).ok());
    ASSERT_TRUE(b.Update("employees", {Value(int64_t{2})},
                         Emp(2, "Bob", 232)).ok());
    ASSERT_TRUE(a.Commit().ok());
    ASSERT_TRUE(db.AdvanceClock(D(1995, 2, 1)).ok());
    ASSERT_TRUE(b.Commit().ok());
    // b committed at the advanced clock instant.
    auto early = db.Snapshot("employees", D(1995, 1, 15));
    ASSERT_TRUE(early.ok());
    for (const Tuple& row : *early) {
      if (row.at(0) == Value(int64_t{2})) {
        EXPECT_EQ(row, Emp(2, "Bob", 200));
      }
    }
    auto late = db.Snapshot("employees", D(1995, 2, 1));
    ASSERT_TRUE(late.ok());
    for (const Tuple& row : *late) {
      if (row.at(0) == Value(int64_t{2})) {
        EXPECT_EQ(row, Emp(2, "Bob", 232));
      }
    }
  }

  // Delete/update overlap conflicts the same way as update/update.
  {
    BEGIN_TXN(a, &db);
    BEGIN_TXN(b, &db);
    ASSERT_TRUE(a.Delete("employees", {Value(int64_t{2})}).ok());
    ASSERT_TRUE(b.Update("employees", {Value(int64_t{2})},
                         Emp(2, "Bob", 999)).ok());
    ASSERT_TRUE(a.Commit().ok());
    EXPECT_EQ(b.Commit().code(), StatusCode::kConflict);
  }

  // A transaction begun after the winner committed does not conflict.
  {
    BEGIN_TXN(c, &db);
    ASSERT_TRUE(c.Update("employees", {Value(int64_t{1})},
                         Emp(1, "Ann", 141)).ok());
    ASSERT_TRUE(c.Commit().ok());
  }
}

TEST(TransactionTest, AdmissionLimitBoundsOpenTransactions) {
  ArchISOptions opts;
  opts.max_open_transactions = 2;
  ArchIS db(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  BEGIN_TXN(a, &db);
  BEGIN_TXN(b, &db);
  auto c = db.Begin();
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(a.Abort().ok());
  auto d = db.Begin();
  EXPECT_TRUE(d.ok());  // the slot was released
  ASSERT_TRUE(b.Abort().ok());
}

TEST(TransactionTest, HandlesAreThreadAffineButMovable) {
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  // The first thread to use a handle claims it; after that, using it from
  // a foreign thread without moving it is rejected.
  {
    BEGIN_TXN(txn, &db);
    ASSERT_TRUE(txn.Insert("employees", Emp(1, "Ann", 100)).ok());
    Status cross;
    std::thread worker([&] {
      cross = txn.Insert("employees", Emp(99, "Eve", 999));
    });
    worker.join();
    EXPECT_EQ(cross.code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Moving the handle transfers ownership to the receiving thread.
  {
    BEGIN_TXN(txn, &db);
    ASSERT_TRUE(txn.Insert("employees", Emp(2, "Bob", 200)).ok());
    Status moved_insert, moved_commit;
    std::thread worker([t = std::move(txn), &moved_insert,
                        &moved_commit]() mutable {
      moved_insert = t.Insert("employees", Emp(3, "Cay", 300));
      moved_commit = t.Commit();
    });
    worker.join();
    EXPECT_TRUE(moved_insert.ok()) << moved_insert.ToString();
    EXPECT_TRUE(moved_commit.ok()) << moved_commit.ToString();
  }
  auto snap = db.Snapshot("employees", D(1995, 1, 1));
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), 3u);
}

TEST(TransactionTest, ConcurrentDisjointWritersAllCommit) {
  // The tentpole scenario: writer threads with disjoint write sets hold
  // open transactions simultaneously while the clock advances between
  // their commits; every batch commits, none conflicts.
  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 8;
  ArchIS db(ArchISOptions{}, D(1995, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, &failures, w] {
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        const int64_t id = w * 1000 + i;
        auto begun = db.Begin();
        if (!begun.ok()) { ++failures; return; }
        Transaction txn = std::move(*begun);
        if (!txn.Insert("employees", Emp(id, "w" + std::to_string(w), id))
                 .ok() ||
            !txn.Commit().ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto snap = db.Snapshot("employees", db.Now());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), size_t{kWriters} * kTxnsPerWriter);
}

TEST(RecoveryTest, WalConfiguredConstructorRequiresOpen) {
  ArchISOptions opts;
  opts.wal.path = TempPath("ctor_guard.wal");
  ArchIS db(opts, D(1995, 1, 1));
  EXPECT_EQ(db.CreateRelation(EmpSpec()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Insert("employees", Emp(1, "Ann", 100)).code(),
            StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, CleanShutdownReopensWithIdenticalHistoryAndClock) {
  const std::string path = TempPath("clean_reopen.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  std::string before;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE((*db)->Insert("employees", Emp(1, "Ann", 100)).ok());
    ASSERT_TRUE((*db)->AdvanceClock(D(1996, 3, 4)).ok());
    BEGIN_TXN(txn, db->get());
    ASSERT_TRUE(txn.Insert("employees", Emp(2, "Bob", 200)).ok());
    ASSERT_TRUE(txn.Update("employees", {Value(int64_t{1})},
                           Emp(1, "Ann", 160)).ok());
    ASSERT_TRUE(txn.Commit().ok());
    before = AllHistories(db->get());
  }
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), before);
  // The clock resumed at the last committed instant.
  EXPECT_EQ((*db)->Now(), D(1996, 3, 4));
  // The recovered txn's versions share one tstart.
  auto doc = (*db)->PublishHistory("employees");
  ASSERT_TRUE(doc.ok());
  int at_commit_instant = 0;
  for (const std::string& t : CollectTstarts(*doc)) {
    if (t == D(1996, 3, 4).ToString()) ++at_commit_instant;
  }
  EXPECT_GE(at_commit_instant, 2);  // Bob's insert + Ann's raise
  // And the instance accepts new durable work.
  ASSERT_TRUE((*db)->Insert("employees", Emp(3, "Cay", 300)).ok());
}

// The crash matrix. A clean scripted run determines the WAL layout; then
// the same script is re-run with a crash injected at every record
// boundary and mid-record, and recovery must agree with the shadow.
TEST(RecoveryTest, CrashAtEveryRecordBoundaryRecoversCommittedPrefix) {
  ScriptedDmlConfig cfg;
  cfg.seed = 7;
  // One COMMIT record per transaction: enough of them that the matrix
  // crosses more than 20 record boundaries.
  cfg.transactions = 24;
  cfg.max_batch = 3;

  // Clean run: learn the record layout.
  const std::string layout_path = TempPath("matrix_layout.wal");
  {
    ArchISOptions opts;
    opts.wal.path = layout_path;
    auto db = ArchIS::Open(opts, cfg.start_date);
    ASSERT_TRUE(db.ok());
    auto run = RunScriptedDml(db->get(), nullptr, cfg);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_FALSE(run->crashed);
  }
  auto layout = storage::ScanLogFile(layout_path);
  ASSERT_TRUE(layout.ok());
  ASSERT_FALSE(layout->torn_tail);
  ASSERT_GT(layout->records.size(), 20u);

  // Crash points: each record's start (clean boundary), mid-header, and
  // mid-payload.
  std::vector<uint64_t> points;
  for (const storage::LogRecord& r : layout->records) {
    // fail_after_bytes = 0 means "never fail", so the boundary before the
    // first record is exercised by its mid-header point instead.
    if (r.offset > 0) points.push_back(r.offset);
    points.push_back(r.offset + 4);
    points.push_back(r.offset + 8 + r.payload.size() / 2);
  }

  int nonempty_recoveries = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("crash point " + std::to_string(points[i]));
    const std::string path =
        TempPath("matrix_" + std::to_string(i) + ".wal");
    ArchISOptions opts;
    opts.wal.path = path;
    opts.wal.fail_after_bytes = points[i];
    auto db = ArchIS::Open(opts, cfg.start_date);
    ASSERT_TRUE(db.ok());
    ArchIS shadow(ArchISOptions{}, cfg.start_date);
    auto run = RunScriptedDml(db->get(), &shadow, cfg);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->crashed);
    db->reset();  // "power loss"

    ArchISOptions reopen;
    reopen.wal.path = path;
    auto recovered = ArchIS::Open(reopen, cfg.start_date);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(AllHistories(recovered->get()), AllHistories(&shadow));
    if (run->committed_units > 1) ++nonempty_recoveries;
  }
  // The matrix exercised real recoveries, not just empty logs.
  EXPECT_GT(nonempty_recoveries, 0);
}

// -- Checkpointing -------------------------------------------------------------

metrics::Counter* RecoveredBytesCounter() {
  return metrics::Registry::Global().GetCounter(
      "archis_wal_recovered_bytes",
      "WAL bytes replayed by recovery (suffix past the manifest only)");
}

metrics::Counter* FallbacksCounter() {
  return metrics::Registry::Global().GetCounter(
      "archis_checkpoint_manifest_fallbacks_total",
      "Recoveries that found the newest manifest torn and used the "
      "previous one");
}

TEST(CheckpointTest, RequiresWalButNotQuiesce) {
  // In-memory instances have no log to truncate.
  ArchIS mem(ArchISOptions{}, D(1995, 1, 1));
  EXPECT_EQ(mem.Checkpoint().code(), StatusCode::kInvalidArgument);

  // Fuzzy checkpoints run while transactions are open; the uncommitted
  // batch is simply not in the manifest and recovers from its COMMIT
  // record (or not at all).
  const std::string path = TempPath("ckpt_fuzzy.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  std::string committed_state;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE((*db)->Insert("employees", Emp(1, "Ann", 100)).ok());
    {
      BEGIN_TXN(txn, db->get());
      ASSERT_TRUE(txn.Insert("employees", Emp(2, "Bob", 200)).ok());
      EXPECT_TRUE((*db)->Checkpoint().ok());  // no quiesce required
      EXPECT_EQ((*db)->checkpoint_seq(), 1u);
      ASSERT_TRUE(txn.Commit().ok());
    }
    EXPECT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->checkpoint_seq(), 2u);
    committed_state = AllHistories(db->get());
  }
  // Both the pre-checkpoint commit and the one that straddled the fuzzy
  // capture survive a reopen.
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), committed_state);

  // Buffered ambient changes (kUpdateLog mode) don't block it either.
  ArchISOptions log_opts;
  log_opts.capture_mode = CaptureMode::kUpdateLog;
  log_opts.wal.path = TempPath("ckpt_fuzzy_ambient.wal");
  auto db2 = ArchIS::Open(log_opts, D(1995, 1, 1));
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE((*db2)->CreateRelation(EmpSpec()).ok());
  ASSERT_TRUE((*db2)->Insert("employees", Emp(1, "Ann", 100)).ok());
  EXPECT_TRUE((*db2)->Checkpoint().ok());
  ASSERT_TRUE((*db2)->Commit().ok());
  EXPECT_TRUE((*db2)->Checkpoint().ok());
}

// The bounded-recovery guarantee: after a checkpoint, Open replays only
// the WAL suffix written since it, asserted both through the facade
// accessor and the archis_wal_recovered_bytes counter.
TEST(CheckpointTest, OpenReplaysOnlyTheWalSuffixPastACheckpoint) {
  const std::string path = TempPath("ckpt_suffix.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE((*db)->AdvanceClock(D(1995, 1, 1).AddDays(i)).ok());
      ASSERT_TRUE(
          (*db)->Insert("employees", Emp(i, "e" + std::to_string(i), 100 * i))
              .ok());
    }
  }
  // Reopen with no checkpoint: the whole log replays.
  uint64_t full_replay_bytes = 0;
  std::string after_checkpoint;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    full_replay_bytes = (*db)->last_recovery_replayed_bytes();
    EXPECT_GT(full_replay_bytes, 0u);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    after_checkpoint = AllHistories(db->get());
  }
  // Reopen right after the checkpoint: nothing to replay.
  {
    const uint64_t before = RecoveredBytesCounter()->value();
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->last_recovery_replayed_bytes(), 0u);
    EXPECT_EQ(RecoveredBytesCounter()->value() - before, 0u);
    EXPECT_EQ((*db)->checkpoint_seq(), 1u);
    EXPECT_EQ(AllHistories(db->get()), after_checkpoint);
    EXPECT_EQ((*db)->Now(), D(1995, 1, 21));
    // Post-checkpoint traffic, including DDL, lands in the suffix.
    RelationSpec proj;
    proj.name = "projects";
    proj.schema = Schema({{"pid", DataType::kInt64},
                          {"budget", DataType::kInt64}});
    proj.key_columns = {"pid"};
    proj.doc_name = "projects.xml";
    ASSERT_TRUE((*db)->CreateRelation(proj).ok());
    ASSERT_TRUE((*db)->AdvanceClock(D(1995, 2, 1)).ok());
    ASSERT_TRUE((*db)->Insert("projects",
                              Tuple{Value(int64_t{1}), Value(int64_t{5000})})
                    .ok());
    ASSERT_TRUE((*db)->Update("employees", {Value(int64_t{3})},
                              Emp(3, "e3", 9999))
                    .ok());
    after_checkpoint = AllHistories(db->get());
  }
  // Reopen again: only that suffix replays, and it is far smaller than
  // the pre-checkpoint full replay.
  {
    const uint64_t before = RecoveredBytesCounter()->value();
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const uint64_t suffix = (*db)->last_recovery_replayed_bytes();
    EXPECT_GT(suffix, 0u);
    EXPECT_LT(suffix, full_replay_bytes);
    EXPECT_EQ(RecoveredBytesCounter()->value() - before, suffix);
    EXPECT_EQ(AllHistories(db->get()), after_checkpoint);
  }
}

// The checkpoint crash matrix: a deterministic crash is injected before
// every phase of the protocol (manifest fsync, atomic install, WAL reset),
// on the first manifest and on a second one that would rotate the first to
// .prev, and recovery must reproduce the durably-acked shadow byte for
// byte every time.
TEST(CheckpointTest, CrashAtEveryCheckpointPhaseRecoversShadowState) {
  const CheckpointCrashPoint phases[] = {
      CheckpointCrashPoint::kBeforeManifestSync,
      CheckpointCrashPoint::kBeforeInstall,
      CheckpointCrashPoint::kBeforeWalReset,
  };
  ScriptedDmlConfig cfg;
  cfg.seed = 19;
  cfg.transactions = 10;
  int case_no = 0;
  for (int prior_checkpoint = 0; prior_checkpoint <= 1; ++prior_checkpoint) {
    for (CheckpointCrashPoint phase : phases) {
      SCOPED_TRACE("phase " + std::to_string(static_cast<int>(phase)) +
                   " prior_checkpoint " + std::to_string(prior_checkpoint));
      const std::string path =
          TempPath("ckpt_crash_" + std::to_string(case_no++) + ".wal");
      ArchISOptions opts;
      opts.wal.path = path;
      auto db = ArchIS::Open(opts, cfg.start_date);
      ASSERT_TRUE(db.ok());
      ArchIS shadow(ArchISOptions{}, cfg.start_date);
      auto run = RunScriptedDml(db->get(), &shadow, cfg);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_FALSE(run->crashed);
      if (prior_checkpoint) {
        ASSERT_TRUE((*db)->Checkpoint().ok());
        // Post-checkpoint traffic the crashed second checkpoint must not
        // lose, mirrored onto the shadow.
        for (int i = 1; i <= 3; ++i) {
          ASSERT_TRUE((*db)->Insert("employees", Emp(i, "post", 50 * i)).ok());
          ASSERT_TRUE(shadow.Insert("employees", Emp(i, "post", 50 * i)).ok());
        }
      }
      const std::string expected = AllHistories(&shadow);
      Status st = (*db)->Checkpoint(phase);
      ASSERT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
      db->reset();  // "power loss"

      ArchISOptions reopen;
      reopen.wal.path = path;
      auto recovered = ArchIS::Open(reopen, cfg.start_date);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(AllHistories(recovered->get()), expected);
      // The recovered instance is fully operational: it takes new durable
      // work and a subsequent checkpoint succeeds.
      ASSERT_TRUE(
          (*recovered)->Insert("employees", Emp(999, "after", 1)).ok());
      ASSERT_TRUE(shadow.Insert("employees", Emp(999, "after", 1)).ok());
      ASSERT_TRUE((*recovered)->Checkpoint().ok());
      recovered->reset();
      auto again = ArchIS::Open(reopen, cfg.start_date);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(AllHistories(again->get()), AllHistories(&shadow));
      EXPECT_EQ((*again)->last_recovery_replayed_bytes(), 0u);
    }
  }
}

// A lying disk tears the newest manifest after install: recovery must fall
// back to the previous manifest and still converge with the shadow,
// because the WAL it pairs with was never truncated.
TEST(CheckpointTest, TornNewestManifestFallsBackToPrevious) {
  const std::string path = TempPath("ckpt_fallback.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  ArchIS shadow(ArchISOptions{}, D(1995, 1, 1));
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE(shadow.CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE((*db)->Insert("employees", Emp(i, "a", 10 * i)).ok());
      ASSERT_TRUE(shadow.Insert("employees", Emp(i, "a", 10 * i)).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());  // seq 1
    ASSERT_TRUE((*db)->AdvanceClock(D(1995, 6, 1)).ok());
    ASSERT_TRUE(shadow.AdvanceClock(D(1995, 6, 1)).ok());
    for (int i = 6; i <= 9; ++i) {
      ASSERT_TRUE((*db)->Insert("employees", Emp(i, "b", 10 * i)).ok());
      ASSERT_TRUE(shadow.Insert("employees", Emp(i, "b", 10 * i)).ok());
    }
    // Second checkpoint installs manifest seq 2 (rotating seq 1 to .prev)
    // but "crashes" before the WAL reset, so the log still carries
    // everything since seq 1.
    ASSERT_EQ((*db)->Checkpoint(CheckpointCrashPoint::kBeforeWalReset).code(),
              StatusCode::kIOError);
  }
  // Tear the newest manifest in half.
  const std::string newest = CheckpointPath(path);
  const auto full_size = std::filesystem::file_size(newest);
  ASSERT_GT(full_size, 16u);
  std::filesystem::resize_file(newest, full_size / 2);

  const uint64_t fallbacks_before = FallbacksCounter()->value();
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(FallbacksCounter()->value() - fallbacks_before, 1u);
  EXPECT_EQ((*db)->checkpoint_seq(), 1u);  // recovered from the fallback
  EXPECT_EQ(AllHistories(db->get()), AllHistories(&shadow));
}

// One file holds exactly one manifest of the current format: a streamed
// manifest decodes to the rows that were captured, while an older version
// number or a record after the footer is Corruption.
TEST(CheckpointTest, ManifestDecodesOnlyOneCurrentVersionManifest) {
  const std::string path = TempPath("ckpt_format.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE((*db)->Insert("employees", Emp(i, "a", 10 * i)).ok());
    }
    ASSERT_TRUE((*db)->AdvanceClock(D(1995, 6, 1)).ok());
    ASSERT_TRUE((*db)->Delete("employees", {Value(int64_t{4})}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  const std::string ckpt = CheckpointPath(path);
  auto manifest = ReadCheckpointManifest(ckpt);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->relations.size(), 1u);
  const CheckpointRelation& rel = manifest->relations[0];
  // Key store plus one store per non-key column; 4 keys ever, 3 current.
  ASSERT_EQ(rel.store_rows.size(), rel.spec.schema.num_columns());
  EXPECT_EQ(rel.store_rows[0].size(), 4u);
  EXPECT_EQ(rel.current_rows.size(), 3u);

  auto scan = storage::ScanLogFile(ckpt);
  ASSERT_TRUE(scan.ok());
  ASSERT_GE(scan->records.size(), 3u);
  const auto write = [&](const std::vector<std::string>& payloads) {
    std::string bytes;
    for (const std::string& p : payloads) storage::AppendFrame(p, &bytes);
    std::FILE* f = std::fopen(ckpt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };
  std::vector<std::string> payloads;
  for (const storage::LogRecord& r : scan->records) {
    payloads.push_back(r.payload);
  }

  // Header payload: type byte, magic, then the version.
  std::vector<std::string> older = payloads;
  const uint32_t v4 = 4;
  std::memcpy(older[0].data() + 1 + sizeof(uint32_t), &v4, sizeof(v4));
  write(older);
  Result<CheckpointManifest> refused = ReadCheckpointManifest(ckpt);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);
  EXPECT_NE(refused.status().message().find("version 4 unsupported"),
            std::string::npos)
      << refused.status().ToString();

  // A second manifest appended after the first one's footer.
  std::vector<std::string> two = payloads;
  two.insert(two.end(), payloads.begin(), payloads.end());
  write(two);
  refused = ReadCheckpointManifest(ckpt);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);

  write(payloads);
  EXPECT_TRUE(ReadCheckpointManifest(ckpt).ok());
}

// WalOptions::checkpoint_after_bytes keeps the log (and therefore
// recovery time) bounded under a sustained workload.
TEST(CheckpointTest, AutoCheckpointBoundsWalSizeUnderSustainedLoad) {
  const std::string path = TempPath("ckpt_auto.wal");
  const uint64_t threshold = 8 * 1024;
  ArchISOptions opts;
  opts.wal.path = path;
  opts.wal.checkpoint_after_bytes = threshold;
  std::string final_state;
  uint64_t max_wal_size = 0;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 300; ++i) {
      if (i % 25 == 0) {
        ASSERT_TRUE((*db)->AdvanceClock(D(1995, 1, 1).AddDays(i / 25)).ok());
      }
      ASSERT_TRUE(
          (*db)->Insert("employees", Emp(i, "w" + std::to_string(i), i)).ok());
      max_wal_size =
          std::max<uint64_t>(max_wal_size, std::filesystem::file_size(path));
    }
    EXPECT_GT((*db)->checkpoint_seq(), 1u);
    final_state = AllHistories(db->get());
  }
  // Bounded: the log never grows past the threshold plus one commit unit
  // (the commit that crosses the threshold triggers the truncation).
  EXPECT_LT(max_wal_size, 2 * threshold);
  // And the recovery bound follows the log bound.
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_LT((*db)->last_recovery_replayed_bytes(), 2 * threshold);
  EXPECT_EQ(AllHistories(db->get()), final_state);
}

// Every checkpoint writes the whole state. A first manifest, WAL traffic,
// a second manifest (rotating the first to .prev), more traffic, a third
// install torn before its fsync, and a WAL suffix after it: recovery
// starts from the second manifest, replays the rest from the WAL, and
// reproduces the H-documents byte for byte.
TEST(CheckpointTest, ManifestRotationAndTornInstallRecoverExactly) {
  const std::string path = TempPath("ckpt_rotation.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  ArchIS shadow(ArchISOptions{}, D(1995, 1, 1));
  std::string expected;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE(shadow.CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 60; ++i) {
      ASSERT_TRUE((*db)->Insert("employees", Emp(i, "base", 10 * i)).ok());
      ASSERT_TRUE(shadow.Insert("employees", Emp(i, "base", 10 * i)).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());  // seq 1

    ASSERT_TRUE((*db)->AdvanceClock(D(1995, 2, 1)).ok());
    ASSERT_TRUE(shadow.AdvanceClock(D(1995, 2, 1)).ok());
    ASSERT_TRUE((*db)->Update("employees", {Value(int64_t{1})},
                              Emp(1, "t1", 11)).ok());
    ASSERT_TRUE(shadow.Update("employees", {Value(int64_t{1})},
                              Emp(1, "t1", 11)).ok());
    ASSERT_TRUE((*db)->Delete("employees", {Value(int64_t{60})}).ok());
    ASSERT_TRUE(shadow.Delete("employees", {Value(int64_t{60})}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());  // seq 2; seq 1 -> .prev
    EXPECT_TRUE(std::filesystem::exists(CheckpointPrevPath(path)));

    ASSERT_TRUE((*db)->AdvanceClock(D(1995, 3, 1)).ok());
    ASSERT_TRUE(shadow.AdvanceClock(D(1995, 3, 1)).ok());
    ASSERT_TRUE((*db)->Update("employees", {Value(int64_t{2})},
                              Emp(2, "t2", 22)).ok());
    ASSERT_TRUE(shadow.Update("employees", {Value(int64_t{2})},
                              Emp(2, "t2", 22)).ok());
    ASSERT_TRUE((*db)->Insert("employees", Emp(61, "t2", 61)).ok());
    ASSERT_TRUE(shadow.Insert("employees", Emp(61, "t2", 61)).ok());
    // The third install stops before its fsync, and only half of its temp
    // file reached the disk.
    ASSERT_EQ(
        (*db)->Checkpoint(CheckpointCrashPoint::kBeforeManifestSync).code(),
        StatusCode::kIOError);
    const std::string tmp = CheckpointTmpPath(path);
    std::filesystem::resize_file(tmp, std::filesystem::file_size(tmp) / 2);

    ASSERT_TRUE((*db)->AdvanceClock(D(1995, 4, 1)).ok());
    ASSERT_TRUE(shadow.AdvanceClock(D(1995, 4, 1)).ok());
    ASSERT_TRUE((*db)->Update("employees", {Value(int64_t{3})},
                              Emp(3, "suffix", 33)).ok());
    ASSERT_TRUE(shadow.Update("employees", {Value(int64_t{3})},
                              Emp(3, "suffix", 33)).ok());
    ASSERT_TRUE((*db)->Insert("employees", Emp(62, "suffix", 62)).ok());
    ASSERT_TRUE(shadow.Insert("employees", Emp(62, "suffix", 62)).ok());
    expected = AllHistories(db->get());
    ASSERT_EQ(expected, AllHistories(&shadow));
  }
  const uint64_t fallbacks_before = FallbacksCounter()->value();
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), expected);
  EXPECT_EQ((*db)->checkpoint_seq(), 2u);
  EXPECT_EQ(FallbacksCounter()->value() - fallbacks_before, 0u);
  EXPECT_GT((*db)->last_recovery_replayed_bytes(), 0u);
  EXPECT_EQ((*db)->Now(), D(1995, 4, 1));
  // The recovered instance keeps working: another checkpoint and reopen.
  ASSERT_TRUE((*db)->Insert("employees", Emp(63, "post", 63)).ok());
  ASSERT_TRUE(shadow.Insert("employees", Emp(63, "post", 63)).ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_EQ((*db)->checkpoint_seq(), 3u);
  expected = AllHistories(db->get());
  db->reset();
  auto again = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(AllHistories(again->get()), expected);
  EXPECT_EQ(AllHistories(again->get()), AllHistories(&shadow));
  EXPECT_EQ((*again)->last_recovery_replayed_bytes(), 0u);
}

// Crash while two transactions are open: the committed one recovers, and
// the uncommitted one left nothing in the log to drop.
TEST(RecoveryTest, CrashDuringConcurrentCommitDropsTheUncommittedRun) {
  const std::string path = TempPath("concurrent_crash.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  ArchIS shadow(ArchISOptions{}, D(1995, 1, 1));
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    ASSERT_TRUE(shadow.CreateRelation(EmpSpec()).ok());
    BEGIN_TXN(loser, db->get());
    BEGIN_TXN(winner, db->get());
    // The loser writes first, but an open transaction's changes stay in
    // its buffer: the winner's COMMIT record is all that reaches the log.
    ASSERT_TRUE(loser.Insert("employees", Emp(1, "uncommitted", 1)).ok());
    ASSERT_TRUE(winner.Insert("employees", Emp(2, "committed", 2)).ok());
    ASSERT_TRUE(winner.Commit().ok());
    ASSERT_TRUE(shadow.Insert("employees", Emp(2, "committed", 2)).ok());
    // "Power loss" with the loser still open: drop the handle and the
    // instance without committing.
    IgnoreStatus(loser.Abort());
  }
  auto rec = Wal::Recover(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->items.size(), 2u);  // CREATE + the winner's txn
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), AllHistories(&shadow));
  auto table = (*db)->current_db().catalog().GetTable("employees");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->RowCount(), 1u);
}

// An open transaction holds nothing in the log, so a checkpoint truncates
// the WAL to its marker while the transaction keeps its buffered DML; the
// later commit lands in the fresh log and recovers from it.
TEST(CheckpointTest, OpenTransactionDoesNotBlockWalTruncation) {
  const std::string path = TempPath("ckpt_open_txn.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  std::string before;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE((*db)->Insert("employees", Emp(i, "a", 10 * i)).ok());
    }
    BEGIN_TXN(txn, db->get());
    ASSERT_TRUE(txn.Insert("employees", Emp(6, "open", 60)).ok());
    ASSERT_TRUE(txn.Update("employees", {Value(int64_t{1})},
                           Emp(1, "open", 11)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Truncated to its marker: the log is the marker record alone.
    auto scan = storage::ScanLogFile(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->records.size(), 1u);
    auto rec = Wal::Recover(path);
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(rec->has_checkpoint_marker);
    EXPECT_EQ(rec->checkpoint_seq, 1u);
    EXPECT_TRUE(rec->items.empty());
    ASSERT_TRUE((*db)->AdvanceClock(D(1995, 2, 1)).ok());
    ASSERT_TRUE(txn.Commit().ok());
    before = AllHistories(db->get());
  }
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(AllHistories(db->get()), before);
  EXPECT_GT((*db)->last_recovery_replayed_bytes(), 0u);
  EXPECT_EQ((*db)->Now(), D(1995, 2, 1));
}

// Composite (surrogate) keys: the manifest must persist the surrogate-id
// map so recovered instances continue numbering where they left off
// instead of splitting one key's history across two ids.
TEST(CheckpointTest, SurrogateKeysStayStableAcrossCheckpointRecovery) {
  const std::string path = TempPath("ckpt_surrogate.wal");
  RelationSpec spec;
  spec.name = "parts";
  spec.schema = Schema({{"code", DataType::kString},
                        {"qty", DataType::kInt64}});
  spec.key_columns = {"code"};
  spec.doc_name = "parts.xml";
  ArchISOptions opts;
  opts.wal.path = path;
  {
    auto db = ArchIS::Open(opts, D(1995, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(spec).ok());
    ASSERT_TRUE(
        (*db)->Insert("parts", Tuple{Value("ax"), Value(int64_t{1})}).ok());
    ASSERT_TRUE(
        (*db)->Insert("parts", Tuple{Value("bx"), Value(int64_t{2})}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = ArchIS::Open(opts, D(1995, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto set = (*db)->archiver().htables("parts");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ((*set)->surrogate_ids().size(), 2u);
  EXPECT_EQ((*set)->next_surrogate(), 3);
  // Updating an existing key continues its history under the same id ...
  ASSERT_TRUE((*db)->AdvanceClock(D(1995, 3, 1)).ok());
  ASSERT_TRUE((*db)->Update("parts", {Value("ax")},
                            Tuple{Value("ax"), Value(int64_t{10})})
                  .ok());
  // ... and a new key gets the next unused surrogate, not a recycled one.
  ASSERT_TRUE(
      (*db)->Insert("parts", Tuple{Value("cx"), Value(int64_t{3})}).ok());
  EXPECT_EQ((*set)->surrogate_ids().size(), 3u);
  EXPECT_EQ((*set)->next_surrogate(), 4);
  // The key store holds exactly three ids (no history split).
  uint64_t key_rows = 0;
  ASSERT_TRUE((*set)->key_store()
                  ->ScanHistory([&](const Tuple&) {
                    ++key_rows;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(key_rows, 3u);
}

}  // namespace
}  // namespace archis::core
