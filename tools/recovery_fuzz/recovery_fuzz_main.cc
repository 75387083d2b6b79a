// recovery_fuzz: randomized crash-recovery checker for the WAL write path
// and the checkpoint protocol.
//
// Each run drives the scripted DML workload (src/workload/scripted_dml.h)
// through six passes against a WAL-backed ArchIS instance:
//
//   1. A clean pass measures the log size and verifies that a clean
//      close-and-reopen reproduces the H-documents byte for byte.
//   2. A crash pass injects an I/O failure at a seed-derived byte offset
//      inside the log, mirrors durably-committed units onto an in-memory
//      shadow, reopens the torn log, and verifies the recovered
//      H-documents match the shadow exactly.
//   3. A checkpoint sweep runs the workload to completion, then crashes
//      the checkpoint at every phase of its protocol (before the manifest
//      fsync, before the atomic install, before the WAL reset) plus the
//      no-crash case; every variant must reopen to the shadow's state,
//      and the clean variant must replay zero WAL suffix bytes.
//   4. An open-transaction pass runs the workload, holds one transaction
//      with buffered DML open across a checkpoint that must truncate the
//      log to its marker, commits it, and keeps committing; a second run
//      of the same script crashes at a seed-derived offset past the
//      checkpoint and must recover to the shadow's state.
//   5. An auto-checkpoint crash pass enables
//      WalOptions::checkpoint_after_bytes with a seed-derived threshold
//      and re-injects the crash offset, so torn logs around checkpoint
//      truncations are exercised too.
//   6. A concurrent-writer pass runs four writer threads with disjoint
//      key ranges (plus one deliberately shared key) against one
//      WAL-backed instance while the main thread advances the clock and
//      takes fuzzy checkpoints mid-flight; after the writers join, the
//      instance is dropped without a clean close and the reopen must
//      reproduce the pre-crash H-documents byte for byte, with every
//      acknowledged commit present and no COMMIT record carrying the id
//      of an aborted or conflict-aborted transaction.
//
// The crash pass additionally snapshots a flight-recorder `.crashdump`
// at the injected crash, parses it, and verifies its txn_commit events
// against the torn log's own recovery: every commit the recorder
// acknowledged must be durable in the WAL tail (txn_commit is recorded
// only after WaitDurable succeeds, so a divergence here means the
// recorder and the log disagree about what committed).
//
// Exits nonzero (with the offending seed and crash offset) on the first
// divergence, so a failure is directly reproducible:
//   recovery_fuzz --runs 16 --seed 7 --transactions 24
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "archis/archis.h"
#include "archis/checkpoint.h"
#include "archis/wal.h"
#include "common/flight_recorder.h"
#include "common/json.h"
#include "common/parse.h"
#include "workload/scripted_dml.h"

namespace {

using archis::Date;
using archis::core::ArchIS;
using archis::core::ArchISOptions;
using archis::core::CheckpointCrashPoint;
using archis::core::CheckpointPath;
using archis::core::CheckpointPrevPath;
using archis::core::CheckpointTmpPath;
using archis::Status;
using archis::StatusCode;
using archis::core::RelationSpec;
using archis::core::Transaction;
namespace minirel = archis::minirel;
using archis::workload::RunScriptedDml;
using archis::workload::ScriptedDmlConfig;
using archis::workload::SerializeAllHistories;

struct Args {
  int runs = 8;
  uint32_t seed = 1;
  int transactions = 24;
  std::string dir;
};

/// Deterministic per-run randomness (LCG), independent of the workload's
/// own generator so crash offsets don't perturb the statement script.
uint32_t NextRand(uint32_t* state) {
  *state = *state * 1664525u + 1013904223u;
  return *state;
}

int Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "recovery_fuzz: %s: %s\n", what, detail.c_str());
  return 1;
}

/// Dumps both sides of a failed equivalence next to the WAL so a
/// divergence is diffable, not just detectable.
void WriteMismatch(const std::string& wal_path, const std::string& recovered,
                   const std::string& shadow) {
  auto dump = [](const std::string& path, const std::string& text) {
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
  };
  dump(wal_path + ".recovered.xml", recovered);
  dump(wal_path + ".shadow.xml", shadow);
  std::fprintf(stderr, "recovery_fuzz: dumped %s.{recovered,shadow}.xml\n",
               wal_path.c_str());
}

/// Removes the WAL and every checkpoint artefact so the next pass starts
/// from a genuinely empty instance (the paths are reused across passes).
void RemoveInstanceFiles(const std::string& wal_path) {
  std::remove(wal_path.c_str());
  std::remove(CheckpointPath(wal_path).c_str());
  std::remove(CheckpointPrevPath(wal_path).c_str());
  std::remove(CheckpointTmpPath(wal_path).c_str());
}

namespace fr = archis::fr;
namespace json = archis::json;

/// Snapshots a `.crashdump` at the injected crash and validates it: the
/// dump must parse as JSON, end in the injected crash event, and every
/// txn_commit it carries must name a transaction the torn log recovers
/// as committed. Returns 0 on success.
int ValidateCrashDump(uint32_t seed, const std::string& wal_path) {
  const std::string tag = "seed=" + std::to_string(seed);
  const std::string dump_path = fr::WriteCrashDump("injected_wal_crash");
  if (dump_path.empty()) {
    return Fail("crashdump write", tag);
  }
  std::string text;
  if (std::FILE* f = std::fopen(dump_path.c_str(), "rb")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  } else {
    return Fail("crashdump read", tag + " " + dump_path);
  }
  auto parsed = json::Parse(text);
  if (!parsed.ok()) {
    return Fail("crashdump parse",
                tag + " " + dump_path + ": " +
                    parsed.status().ToString());
  }
  const json::Value* events = parsed->Find("events");
  if (events == nullptr || !events->is_array() || events->items().empty()) {
    return Fail("crashdump events", tag + " missing/empty events array");
  }
  // The dump's final event is the crash stamp itself.
  const json::Value* last_name = events->items().back().Find("name");
  if (last_name == nullptr || last_name->AsString() != "crash") {
    return Fail("crashdump tail", tag + " last event is not the crash");
  }

  // The torn log's own recovery is the ground truth for what committed.
  auto recovery = archis::core::Wal::Recover(wal_path);
  if (!recovery.ok()) {
    return Fail("crashdump wal recover", tag + recovery.status().ToString());
  }
  std::set<uint64_t> durable;
  for (const auto& item : recovery->items) {
    if (const auto* txn = std::get_if<archis::core::WalCommittedTxn>(&item)) {
      durable.insert(txn->txn_id);
    }
  }
  size_t commit_events = 0;
  for (const json::Value& ev : events->items()) {
    const json::Value* name = ev.Find("name");
    if (name == nullptr || name->AsString() != "txn_commit") continue;
    ++commit_events;
    const json::Value* args = ev.Find("args");
    const json::Value* a = args != nullptr ? args->Find("a") : nullptr;
    if (a == nullptr) {
      return Fail("crashdump commit event", tag + " missing args.a");
    }
    const uint64_t txn_id = static_cast<uint64_t>(a->AsInt());
    if (durable.count(txn_id) == 0) {
      return Fail("crashdump commit not durable",
                  tag + " txn_id=" + std::to_string(txn_id) +
                      " acknowledged by the recorder but absent from the "
                      "recovered WAL");
    }
  }
  if (commit_events == 0 && !durable.empty()) {
    return Fail("crashdump commit events",
                tag + " WAL recovered " + std::to_string(durable.size()) +
                    " commits but the dump recorded none");
  }
  std::remove(dump_path.c_str());
  return 0;
}

/// Concurrent-writer pass: four writer threads with disjoint key ranges
/// (plus one shared key they contend on) run against one WAL-backed
/// instance while the main thread advances the clock and takes fuzzy
/// checkpoints. The instance is then dropped without a clean close; the
/// reopen must reproduce the pre-drop H-documents exactly and every
/// acknowledged commit must be present. Returns 0 on success.
int RunConcurrentPass(uint32_t seed, const std::string& wal_path) {
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 4;
  constexpr int kTxnsPerWriter = 24;
  constexpr int64_t kSharedKey = 9000;
  constexpr int64_t kSharedValue = 777;
  const std::string tag = "seed=" + std::to_string(seed);

  RemoveInstanceFiles(wal_path);
  ArchISOptions opts;
  opts.wal.path = wal_path;
  const Date start = Date::FromYmd(2000, 1, 1);
  auto opened = ArchIS::Open(opts, start);
  if (!opened.ok()) {
    return Fail("open (concurrent)", opened.status().ToString());
  }
  ArchIS* db = opened->get();
  RelationSpec spec;
  spec.name = "counters";
  spec.schema = minirel::Schema({{"id", minirel::DataType::kInt64},
                                 {"count", minirel::DataType::kInt64}});
  spec.key_columns = {"id"};
  spec.doc_name = "counters.xml";
  if (!db->CreateRelation(spec).ok()) {
    return Fail("create (concurrent)", tag);
  }

  std::atomic<int> failures{0};
  std::atomic<int> conflicts{0};
  // Per-slot count of acknowledged (durably committed) increments. Each
  // slot is written by exactly one thread; the join is the read barrier.
  std::vector<int> acked(kWriters * kKeysPerWriter, 0);
  // Per-writer ids of explicitly aborted and conflict-aborted
  // transactions; none of them may reach the log.
  std::vector<std::vector<uint64_t>> dropped(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, db, w] {
      uint32_t rng = seed * 7919u + static_cast<uint32_t>(w) * 104729u + 1;
      for (int t = 0; t < kTxnsPerWriter; ++t) {
        const int slot =
            w * kKeysPerWriter +
            static_cast<int>(NextRand(&rng) % kKeysPerWriter);
        const int64_t id = 1 + slot;
        const int64_t next = acked[slot] + 1;
        auto begun = db->Begin();
        if (!begun.ok()) {
          ++failures;
          return;
        }
        Transaction txn = std::move(*begun);
        minirel::Tuple row{minirel::Value(id), minirel::Value(next)};
        Status st = next == 1
                        ? txn.Insert("counters", row)
                        : txn.Update("counters", {minirel::Value(id)}, row);
        if (!st.ok()) {
          std::fprintf(stderr, "concurrent writer %d: write slot %d: %s\n", w,
                       slot, st.ToString().c_str());
          ++failures;
          return;
        }
        if (NextRand(&rng) % 5 == 0) {
          // An aborted batch writes nothing to the log: the log check,
          // the acked counts and the reopen below must not see it.
          dropped[w].push_back(txn.id());
          if (!txn.Abort().ok()) ++failures;
          continue;
        }
        if (NextRand(&rng) % 4 == 0) {
          // Contend on the shared key; the write is idempotent so the
          // final value is fixed no matter which committer wins.
          minirel::Tuple shared{minirel::Value(kSharedKey),
                                minirel::Value(kSharedValue)};
          Status sst = txn.Update("counters", {minirel::Value(kSharedKey)},
                                  shared);
          if (sst.code() == StatusCode::kNotFound) {
            sst = txn.Insert("counters", shared);
          }
          // A commit landing between the probe and the insert can turn
          // either arm into AlreadyExists/NotFound; the commit-time
          // conflict check is the real arbiter, so just drop the write.
          if (!sst.ok() && sst.code() != StatusCode::kAlreadyExists &&
              sst.code() != StatusCode::kNotFound) {
            ++failures;
            return;
          }
          // Hold the shared key in the write set a moment so overlapping
          // committers actually collide and exercise kConflict.
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        Status cst = txn.Commit();
        if (cst.ok()) {
          acked[slot] = static_cast<int>(next);
        } else if (cst.code() == StatusCode::kConflict) {
          ++conflicts;  // first committer won the shared key; batch dropped
          dropped[w].push_back(txn.id());
        } else {
          ++failures;
          return;
        }
      }
    });
  }
  // Fuzzy checkpoints and clock advances race the writers.
  Date clock = start;
  Status pace = Status::OK();
  for (int i = 0; i < 6 && pace.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    clock = clock.AddDays(1);
    pace = db->AdvanceClock(clock);
    if (pace.ok()) pace = db->Checkpoint();
  }
  for (std::thread& thr : writers) thr.join();
  if (!pace.ok()) {
    return Fail("checkpoint (concurrent)", tag + " -> " + pace.ToString());
  }
  // The reopen must start from a manifest that rotated an earlier one.
  if (db->checkpoint_seq() < 2) {
    return Fail("checkpoints (concurrent)",
                tag + " seq=" + std::to_string(db->checkpoint_seq()));
  }
  if (failures.load() != 0) {
    return Fail("writer failures (concurrent)",
                tag + " failures=" + std::to_string(failures.load()));
  }

  // A transaction is logged only when it commits: whatever suffix the
  // checkpoints left in the log, no COMMIT record names a dropped batch.
  auto logged = archis::core::Wal::Recover(wal_path);
  if (!logged.ok()) {
    return Fail("log scan (concurrent)", logged.status().ToString());
  }
  std::set<uint64_t> dropped_ids;
  for (const std::vector<uint64_t>& ids : dropped) {
    dropped_ids.insert(ids.begin(), ids.end());
  }
  for (const auto& item : logged->items) {
    const auto* txn = std::get_if<archis::core::WalCommittedTxn>(&item);
    if (txn != nullptr && dropped_ids.count(txn->txn_id) != 0) {
      return Fail("aborted transaction logged (concurrent)",
                  tag + " txn=" + std::to_string(txn->txn_id));
    }
  }

  // Every acknowledged increment must be visible, at its final value.
  auto snap = db->Snapshot("counters", db->Now());
  if (!snap.ok()) return Fail("snapshot (concurrent)", tag);
  std::vector<int64_t> current(kWriters * kKeysPerWriter, 0);
  bool shared_present = false;
  for (const minirel::Tuple& row : *snap) {
    const int64_t id = row.at(0).AsInt();
    if (id == kSharedKey) {
      shared_present = true;
      if (row.at(1).AsInt() != kSharedValue) {
        return Fail("shared key value (concurrent)", tag);
      }
      continue;
    }
    current[static_cast<size_t>(id - 1)] = row.at(1).AsInt();
  }
  for (size_t slot = 0; slot < acked.size(); ++slot) {
    if (current[slot] != acked[slot]) {
      return Fail("acked commit missing (concurrent)",
                  tag + " slot=" + std::to_string(slot) + " acked=" +
                      std::to_string(acked[slot]) + " visible=" +
                      std::to_string(current[slot]));
    }
  }

  // "Power loss" after the writers are done: everything acknowledged is
  // durable, so the reopen must rebuild this exact state from the
  // newest checkpoint manifest plus the WAL suffix.
  const std::string pre_drop = SerializeAllHistories(db);
  opened->reset();
  auto recovered = ArchIS::Open(opts, start);
  if (!recovered.ok()) {
    return Fail("reopen (concurrent)", recovered.status().ToString());
  }
  if (SerializeAllHistories(recovered->get()) != pre_drop) {
    WriteMismatch(wal_path, SerializeAllHistories(recovered->get()),
                  pre_drop);
    return Fail("concurrent recovery mismatch",
                tag + " conflicts=" + std::to_string(conflicts.load()));
  }
  std::printf("  seed=%u concurrent: %d writers, conflicts=%d, shared=%s, "
              "recovered exactly\n",
              seed, kWriters, conflicts.load(),
              shared_present ? "yes" : "no");
  return 0;
}

/// Where an open-transaction run stands, in bytes written through the WAL
/// handle.
struct OpenTxnRun {
  bool crashed = false;
  uint64_t bytes_at_checkpoint = 0;
  uint64_t bytes_at_end = 0;
};

/// Runs the script, then holds one transaction with buffered DML open
/// across a checkpoint, commits it and runs a few more commits, mirroring
/// every durable unit onto `shadow`. Without an injected crash the
/// checkpoint must truncate the log to its marker, and the open
/// transaction must write nothing before its commit.
archis::Result<OpenTxnRun> RunOpenTxnAcrossCheckpoint(
    ArchIS* db, ArchIS* shadow, const ScriptedDmlConfig& cfg,
    const std::string& wal_path) {
  OpenTxnRun out;
  const auto crashed = [&](const Status& st) {
    out.crashed = st.code() == StatusCode::kIOError;
    return out.crashed;
  };
  ARCHIS_ASSIGN_OR_RETURN(auto run, RunScriptedDml(db, shadow, cfg));
  if (run.crashed) {
    out.crashed = true;
    return out;
  }
  const auto emp = [](int64_t id, int64_t salary) {
    return minirel::Tuple{minirel::Value(id), minirel::Value("open"),
                          minirel::Value(salary)};
  };
  const auto update = [&](Transaction* txn, int64_t id, int64_t salary) {
    return txn->Update("employees", {minirel::Value(id)}, emp(id, salary));
  };
  // Commits the primary's transaction, then its mirror; false once the
  // injected crash hit the primary.
  const auto commit = [&](Transaction* txn,
                          Transaction* mirror) -> archis::Result<bool> {
    Status st = txn->Commit();
    if (crashed(st)) return false;
    ARCHIS_RETURN_NOT_OK(st);
    ARCHIS_RETURN_NOT_OK(mirror->Commit());
    return true;
  };
  const auto advance = [&](Date clock) {
    ARCHIS_RETURN_NOT_OK(db->AdvanceClock(clock));
    return shadow->AdvanceClock(clock);
  };
  // The open transaction and its mirror take the same statements.
  ARCHIS_ASSIGN_OR_RETURN(Transaction open, db->Begin());
  ARCHIS_ASSIGN_OR_RETURN(Transaction open_mirror, shadow->Begin());
  for (Transaction* txn : {&open, &open_mirror}) {
    ARCHIS_RETURN_NOT_OK(txn->Insert("employees", emp(900001, 1)));
    ARCHIS_RETURN_NOT_OK(txn->Insert("employees", emp(900002, 2)));
    ARCHIS_RETURN_NOT_OK(update(txn, 900001, 3));
  }
  out.bytes_at_checkpoint = db->wal()->bytes_written();
  Status st = db->Checkpoint();
  if (crashed(st)) return out;
  ARCHIS_RETURN_NOT_OK(st);
  if (db->options().wal.fail_after_bytes == 0) {
    ARCHIS_ASSIGN_OR_RETURN(auto rec, archis::core::Wal::Recover(wal_path));
    if (!rec.has_checkpoint_marker || !rec.items.empty()) {
      return Status::Internal(
          "checkpoint with an open transaction did not truncate the WAL");
    }
  }
  Date clock = db->Now().AddDays(1);
  ARCHIS_RETURN_NOT_OK(advance(clock));
  ARCHIS_ASSIGN_OR_RETURN(bool alive, commit(&open, &open_mirror));
  for (int64_t i = 1; alive && i <= 6; ++i) {
    clock = clock.AddDays(1);
    ARCHIS_RETURN_NOT_OK(advance(clock));
    ARCHIS_ASSIGN_OR_RETURN(Transaction txn, db->Begin());
    ARCHIS_ASSIGN_OR_RETURN(Transaction mirror, shadow->Begin());
    for (Transaction* t : {&txn, &mirror}) {
      ARCHIS_RETURN_NOT_OK(update(t, 900001, 10 * i));
      ARCHIS_RETURN_NOT_OK(update(t, 900002, 20 * i));
    }
    ARCHIS_ASSIGN_OR_RETURN(alive, commit(&txn, &mirror));
  }
  if (!alive) return out;
  out.bytes_at_end = db->wal()->bytes_written();
  return out;
}

/// One fuzz iteration; returns 0 on success.
int RunOne(uint32_t seed, int transactions, const std::string& wal_path,
           uint32_t* rng) {
  ScriptedDmlConfig cfg;
  cfg.seed = seed;
  cfg.transactions = transactions;

  ArchISOptions wal_opts;
  wal_opts.wal.path = wal_path;

  // ---- clean pass: measure the log, verify clean reopen ----
  RemoveInstanceFiles(wal_path);
  auto clean = ArchIS::Open(wal_opts, cfg.start_date);
  if (!clean.ok()) return Fail("open (clean)", clean.status().ToString());
  auto clean_run = RunScriptedDml(clean->get(), nullptr, cfg);
  if (!clean_run.ok()) {
    return Fail("scripted dml (clean)", clean_run.status().ToString());
  }
  if (clean_run->crashed) {
    return Fail("scripted dml (clean)", "unexpected crash without injection");
  }
  const uint64_t log_bytes = (*clean)->wal()->bytes_written();
  const std::string clean_hist = SerializeAllHistories(clean->get());
  clean->reset();

  auto reopened = ArchIS::Open(wal_opts, cfg.start_date);
  if (!reopened.ok()) {
    return Fail("reopen (clean)", reopened.status().ToString());
  }
  if (SerializeAllHistories(reopened->get()) != clean_hist) {
    return Fail("clean reopen mismatch",
                "seed=" + std::to_string(seed));
  }
  reopened->reset();

  // ---- crash pass: torn log must recover to the shadow's state ----
  if (log_bytes == 0) return Fail("clean pass", "empty log");
  const uint64_t budget = 1 + NextRand(rng) % log_bytes;
  RemoveInstanceFiles(wal_path);
  // Txn ids restart per instance: drop the clean pass's events so the
  // crash dump speaks only about this torn log.
  fr::ResetForTest();
  ArchISOptions crash_opts = wal_opts;
  crash_opts.wal.fail_after_bytes = budget;
  auto primary = ArchIS::Open(crash_opts, cfg.start_date);
  if (!primary.ok()) return Fail("open (crash)", primary.status().ToString());
  ArchIS shadow(ArchISOptions{}, cfg.start_date);
  auto crash_run = RunScriptedDml(primary->get(), &shadow, cfg);
  if (!crash_run.ok()) {
    return Fail("scripted dml (crash)", crash_run.status().ToString());
  }
  // Snapshot and validate a crash dump at the injected crash: its
  // txn_commit tail must agree with what the torn log actually holds.
  if (int rc = ValidateCrashDump(seed, wal_path)) return rc;
  primary->reset();  // "power loss": drop all in-memory state

  auto recovered = ArchIS::Open(wal_opts, cfg.start_date);
  if (!recovered.ok()) {
    return Fail("reopen (crash)", recovered.status().ToString());
  }
  if (SerializeAllHistories(recovered->get()) !=
      SerializeAllHistories(&shadow)) {
    return Fail("recovery mismatch",
                "seed=" + std::to_string(seed) +
                    " fail_after_bytes=" + std::to_string(budget) +
                    " committed_units=" +
                    std::to_string(crash_run->committed_units));
  }
  // ---- checkpoint sweep: crash at every phase of the protocol ----
  const CheckpointCrashPoint phases[] = {
      CheckpointCrashPoint::kNone,
      CheckpointCrashPoint::kBeforeManifestSync,
      CheckpointCrashPoint::kBeforeInstall,
      CheckpointCrashPoint::kBeforeWalReset,
  };
  for (CheckpointCrashPoint phase : phases) {
    const std::string tag =
        "seed=" + std::to_string(seed) +
        " phase=" + std::to_string(static_cast<int>(phase));
    RemoveInstanceFiles(wal_path);
    auto ckpt_db = ArchIS::Open(wal_opts, cfg.start_date);
    if (!ckpt_db.ok()) {
      return Fail("open (checkpoint)", ckpt_db.status().ToString());
    }
    ArchIS ckpt_shadow(ArchISOptions{}, cfg.start_date);
    auto ckpt_run = RunScriptedDml(ckpt_db->get(), &ckpt_shadow, cfg);
    if (!ckpt_run.ok()) {
      return Fail("scripted dml (checkpoint)", ckpt_run.status().ToString());
    }
    archis::Status st = (*ckpt_db)->Checkpoint(phase);
    if (phase == CheckpointCrashPoint::kNone ? !st.ok() : st.ok()) {
      return Fail("checkpoint status", tag + " -> " + st.ToString());
    }
    ckpt_db->reset();  // "power loss" at the injected phase

    auto ckpt_recovered = ArchIS::Open(wal_opts, cfg.start_date);
    if (!ckpt_recovered.ok()) {
      return Fail("reopen (checkpoint)",
                  tag + " -> " + ckpt_recovered.status().ToString());
    }
    if (SerializeAllHistories(ckpt_recovered->get()) !=
        SerializeAllHistories(&ckpt_shadow)) {
      return Fail("checkpoint recovery mismatch", tag);
    }
    if (phase == CheckpointCrashPoint::kNone &&
        (*ckpt_recovered)->last_recovery_replayed_bytes() != 0) {
      return Fail("checkpoint suffix not bounded",
                  tag + " replayed_bytes=" +
                      std::to_string(
                          (*ckpt_recovered)->last_recovery_replayed_bytes()));
    }
  }

  // ---- open-transaction pass: a checkpoint truncates under an open txn ----
  {
    const std::string tag = "seed=" + std::to_string(seed) + " open-txn";
    RemoveInstanceFiles(wal_path);
    auto measure = ArchIS::Open(wal_opts, cfg.start_date);
    if (!measure.ok()) return Fail("open (open-txn)", tag);
    ArchIS measure_shadow(ArchISOptions{}, cfg.start_date);
    auto measured = RunOpenTxnAcrossCheckpoint(
        measure->get(), &measure_shadow, cfg, wal_path);
    if (!measured.ok() || measured->crashed) {
      return Fail("open-txn run", tag + " " + measured.status().ToString());
    }
    measure->reset();
    // The same script again, torn at a random offset past the checkpoint
    // and short of the last byte (a budget that covers every write never
    // crashes).
    const uint64_t tail =
        measured->bytes_at_end - measured->bytes_at_checkpoint;
    const uint64_t open_budget =
        measured->bytes_at_checkpoint + 1 + NextRand(rng) % (tail - 1);
    RemoveInstanceFiles(wal_path);
    ArchISOptions open_opts = wal_opts;
    open_opts.wal.fail_after_bytes = open_budget;
    auto open_primary = ArchIS::Open(open_opts, cfg.start_date);
    if (!open_primary.ok()) return Fail("open (open-txn crash)", tag);
    ArchIS open_shadow(ArchISOptions{}, cfg.start_date);
    auto open_run = RunOpenTxnAcrossCheckpoint(open_primary->get(),
                                               &open_shadow, cfg, wal_path);
    if (!open_run.ok() || !open_run->crashed) {
      return Fail("open-txn crash run",
                  tag + " " + open_run.status().ToString());
    }
    open_primary->reset();
    auto open_recovered = ArchIS::Open(wal_opts, cfg.start_date);
    if (!open_recovered.ok()) {
      return Fail("reopen (open-txn)",
                  tag + " -> " + open_recovered.status().ToString());
    }
    if (SerializeAllHistories(open_recovered->get()) !=
        SerializeAllHistories(&open_shadow)) {
      WriteMismatch(wal_path, SerializeAllHistories(open_recovered->get()),
                    SerializeAllHistories(&open_shadow));
      return Fail("open-txn recovery mismatch",
                  tag + " fail_after_bytes=" + std::to_string(open_budget));
    }
  }

  // ---- auto-checkpoint crash pass: torn logs around truncations ----
  const uint64_t auto_threshold = 1 + NextRand(rng) % (1 + log_bytes / 2);
  RemoveInstanceFiles(wal_path);
  ArchISOptions auto_opts = wal_opts;
  auto_opts.wal.fail_after_bytes = budget;
  auto_opts.wal.checkpoint_after_bytes = auto_threshold;
  auto auto_primary = ArchIS::Open(auto_opts, cfg.start_date);
  if (!auto_primary.ok()) {
    return Fail("open (auto-checkpoint)", auto_primary.status().ToString());
  }
  ArchIS auto_shadow(ArchISOptions{}, cfg.start_date);
  auto auto_run = RunScriptedDml(auto_primary->get(), &auto_shadow, cfg);
  if (!auto_run.ok()) {
    return Fail("scripted dml (auto-checkpoint)",
                auto_run.status().ToString());
  }
  auto_primary->reset();

  auto auto_recovered = ArchIS::Open(wal_opts, cfg.start_date);
  if (!auto_recovered.ok()) {
    return Fail("reopen (auto-checkpoint)",
                auto_recovered.status().ToString());
  }
  if (SerializeAllHistories(auto_recovered->get()) !=
      SerializeAllHistories(&auto_shadow)) {
    WriteMismatch(wal_path, SerializeAllHistories(auto_recovered->get()),
                  SerializeAllHistories(&auto_shadow));
    return Fail("auto-checkpoint recovery mismatch",
                "seed=" + std::to_string(seed) +
                    " fail_after_bytes=" + std::to_string(budget) +
                    " checkpoint_after_bytes=" +
                    std::to_string(auto_threshold));
  }

  std::printf(
      "  seed=%u log=%llu bytes crash@%llu committed=%d crashed=%s "
      "ckpt-phases=4 open-txn auto-ckpt@%llu ok\n",
      seed, static_cast<unsigned long long>(log_bytes),
      static_cast<unsigned long long>(budget), crash_run->committed_units,
      crash_run->crashed ? "yes" : "no",
      static_cast<unsigned long long>(auto_threshold));

  // ---- concurrent-writer pass: fuzzy checkpoints under real threads ----
  return RunConcurrentPass(seed, wal_path);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value: the next argument, a whole integer in
    // [lo, hi].
    auto number = [&](int64_t lo, int64_t hi, auto* out) {
      const char* v = next();
      if (v == nullptr) return false;
      const archis::Result<int64_t> n = archis::ParseInt64InRange(v, lo, hi);
      if (!n.ok()) {
        std::fprintf(stderr, "recovery_fuzz: %s: %s\n", arg.c_str(),
                     n.status().message().c_str());
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(*n);
      return true;
    };
    bool ok = true;
    if (arg == "--runs") {
      ok = number(1, 1 << 20, &args.runs);
    } else if (arg == "--seed") {
      ok = number(0, UINT32_MAX, &args.seed);
    } else if (arg == "--transactions") {
      ok = number(1, 1 << 20, &args.transactions);
    } else if (arg == "--dir") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) args.dir = v;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: %s [--runs N] [--seed S] [--transactions T] "
                   "[--dir PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  namespace fs = std::filesystem;
  fs::path dir = args.dir.empty()
                     ? fs::temp_directory_path() / "archis_recovery_fuzz"
                     : fs::path(args.dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Fail("create dir", ec.message());
  const std::string wal_path = (dir / "fuzz.wal").string();
  // Crash dumps land next to the WAL under test, not in the cwd.
  ::setenv("ARCHIS_CRASHDUMP_DIR", dir.string().c_str(), /*overwrite=*/0);

  std::printf("recovery_fuzz: %d runs, base seed %u, %d transactions\n",
              args.runs, args.seed, args.transactions);
  uint32_t rng = args.seed * 2654435761u + 1;
  for (int i = 0; i < args.runs; ++i) {
    if (int rc = RunOne(args.seed + static_cast<uint32_t>(i),
                        args.transactions, wal_path, &rng)) {
      return rc;
    }
  }
  RemoveInstanceFiles(wal_path);
  std::printf("recovery_fuzz: all %d runs recovered exactly\n", args.runs);
  return 0;
}
