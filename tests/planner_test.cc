// Cost-based planner tests (DESIGN.md §11): statistics maintenance and
// durability (freeze, BlockZIP, checkpoint, recovery), plan-choice goldens
// including the data-shape-driven access-path flip, estimated-vs-actual
// surfacing in the query profile, and the PlanForce escape hatch.
//
// Also locks in the auto-checkpoint + crash recovery mode of the
// recovery_fuzz sweep as a deterministic regression matrix.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "archis/archis.h"
#include "archis/planner.h"
#include "common/metrics.h"
#include "workload/scripted_dml.h"
#include "xml/serializer.h"

namespace archis::core {
namespace {

using minirel::CompareOp;
using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;
using minirel::Value;
using workload::RunScriptedDml;
using workload::ScriptedDmlConfig;
using workload::SerializeAllHistories;

Date D(int y, int m, int d) { return Date::FromYmd(y, m, d); }

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove(CheckpointPath(path).c_str());
  std::remove(CheckpointPrevPath(path).c_str());
  std::remove(CheckpointTmpPath(path).c_str());
  return path;
}

RelationSpec EmpSpec() {
  RelationSpec spec;
  spec.name = "emp";
  spec.schema = Schema({{"id", DataType::kInt64},
                        {"salary", DataType::kInt64},
                        {"title", DataType::kString}});
  spec.key_columns = {"id"};
  spec.doc_name = "emps.xml";
  spec.root_tag = "emps";
  return spec;
}

Tuple Emp(int64_t id, int64_t salary, const std::string& title) {
  return Tuple{Value(id), Value(salary), Value(title)};
}

/// The salary attribute store of `db`'s emp relation.
const SegmentedStore* SalaryStore(ArchIS* db) {
  auto set = db->archiver().htables("emp");
  EXPECT_TRUE(set.ok());
  auto store = (*set)->attribute_store("salary");
  EXPECT_TRUE(store.ok());
  return *store;
}

/// One big frozen segment: `ids` employees inserted in one period, then a
/// single freeze. Optionally BlockZIP-compressed.
std::unique_ptr<ArchIS> BuildWideShape(int ids, bool compress) {
  ArchISOptions opts;
  opts.segment.compress = compress;
  auto db = std::make_unique<ArchIS>(opts, D(2000, 1, 1));
  EXPECT_TRUE(db->CreateRelation(EmpSpec()).ok());
  for (int i = 1; i <= ids; ++i) {
    EXPECT_TRUE(db->Insert("emp", Emp(i, 100 + i, "E")).ok());
  }
  EXPECT_TRUE(db->AdvanceClock(D(2001, 1, 1)).ok());
  for (int i = 1; i <= ids; ++i) {
    EXPECT_TRUE(
        db->Update("emp", {Value(int64_t{i})}, Emp(i, 200 + i, "E")).ok());
  }
  EXPECT_TRUE(db->AdvanceClock(D(2002, 1, 1)).ok());
  EXPECT_TRUE(db->FreezeAll().ok());
  EXPECT_TRUE(db->AdvanceClock(D(2002, 1, 2)).ok());
  return db;
}

/// Many tiny frozen segments: `ids` employees, one update + freeze per
/// year over `periods` years.
std::unique_ptr<ArchIS> BuildDeepShape(int ids, int periods) {
  auto db = std::make_unique<ArchIS>(ArchISOptions{}, D(2000, 1, 1));
  EXPECT_TRUE(db->CreateRelation(EmpSpec()).ok());
  for (int i = 1; i <= ids; ++i) {
    EXPECT_TRUE(db->Insert("emp", Emp(i, 100, "E")).ok());
  }
  for (int p = 1; p <= periods; ++p) {
    EXPECT_TRUE(db->AdvanceClock(D(2000 + p, 1, 1)).ok());
    for (int i = 1; i <= ids; ++i) {
      EXPECT_TRUE(
          db->Update("emp", {Value(int64_t{i})}, Emp(i, 100 + p, "E")).ok());
    }
    EXPECT_TRUE(db->FreezeAll().ok());
  }
  EXPECT_TRUE(db->AdvanceClock(D(2000 + periods, 6, 1)).ok());
  return db;
}

/// Single-variable salary plan, optionally restricted to one object and a
/// snapshot instant.
SqlXmlPlan SalaryPlan(std::optional<int64_t> id = std::nullopt,
                      std::optional<Date> snapshot = std::nullopt) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  v.id_eq = id;
  v.snapshot = snapshot;
  plan.vars.push_back(v);
  OutputSpec out;
  out.kind = OutputSpec::Kind::kElement;
  out.name = "salary";
  out.column = HColRef{0, HCol::kValue};
  plan.output = out;
  return plan;
}

// ---------------------------------------------------------------------------
// Statistics maintenance and durability
// ---------------------------------------------------------------------------

TEST(StatsCatalogTest, MaintainedIncrementallyOnUpdatePath) {
  ArchIS db(ArchISOptions{}, D(2000, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(db.Insert("emp", Emp(i, 100, "E")).ok());
  }
  ASSERT_TRUE(db.AdvanceClock(D(2001, 1, 1)).ok());
  ASSERT_TRUE(db.Update("emp", {Value(int64_t{1})}, Emp(1, 200, "E")).ok());
  const StoreStatistics& stats = SalaryStore(&db)->statistics();
  EXPECT_EQ(stats.versions_total, 4u);  // 3 inserts + 1 replacement
  EXPECT_EQ(stats.versions_open, 3u);
  EXPECT_EQ(stats.distinct_ids.Estimate(), 3u);
  EXPECT_NEAR(stats.LiveRatio(), 0.75, 1e-9);
}

TEST(StatsCatalogTest, SurviveFreeze) {
  auto db = std::make_unique<ArchIS>(ArchISOptions{}, D(2000, 1, 1));
  ASSERT_TRUE(db->CreateRelation(EmpSpec()).ok());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(db->Insert("emp", Emp(i, 100 + i, "E")).ok());
  }
  ASSERT_TRUE(db->AdvanceClock(D(2001, 1, 1)).ok());
  ASSERT_TRUE(db->Update("emp", {Value(int64_t{1})}, Emp(1, 999, "E")).ok());
  const std::string before = SalaryStore(db.get())->statistics().Encode();
  ASSERT_TRUE(db->FreezeAll().ok());
  // Freezing reorganizes physical segments; the logical statistics must
  // not move.
  EXPECT_EQ(SalaryStore(db.get())->statistics().Encode(), before);
  EXPECT_FALSE(SalaryStore(db.get())->segments().empty());
}

TEST(StatsCatalogTest, SurviveBlockZipCompression) {
  auto db = BuildWideShape(/*ids=*/60, /*compress=*/false);
  const std::string uncompressed = SalaryStore(db.get())->statistics().Encode();
  auto zipped = BuildWideShape(/*ids=*/60, /*compress=*/true);
  const SegmentedStore* store = SalaryStore(zipped.get());
  // Same logical history => identical statistics, compressed or not.
  EXPECT_EQ(store->statistics().Encode(), uncompressed);
  ASSERT_FALSE(store->segments().empty());
  EXPECT_TRUE(store->segments()[0].compressed);
  EXPECT_GT(store->segments()[0].blocks, 0u);
}

TEST(StatsCatalogTest, CheckpointManifestRoundTripsStatistics) {
  const std::string path = TempPath("planner_ckpt.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  std::string expected;
  {
    auto db = ArchIS::Open(opts, D(2000, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE((*db)->Insert("emp", Emp(i, 100 + i, "E")).ok());
    }
    ASSERT_TRUE((*db)->AdvanceClock(D(2001, 1, 1)).ok());
    ASSERT_TRUE(
        (*db)->Update("emp", {Value(int64_t{3})}, Emp(3, 777, "E")).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    expected = SalaryStore(db->get())->statistics().Encode();
  }
  auto db = ArchIS::Open(opts, D(2000, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Recovery came from the manifest; the installed statistics snapshot
  // must match the checkpointed instance byte for byte.
  EXPECT_EQ((*db)->checkpoint_seq(), 1u);
  EXPECT_EQ(SalaryStore(db->get())->statistics().Encode(), expected);
}

TEST(StatsCatalogTest, WalReplayRebuildsStatistics) {
  const std::string path = TempPath("planner_replay.wal");
  ArchISOptions opts;
  opts.wal.path = path;
  std::string expected;
  {
    auto db = ArchIS::Open(opts, D(2000, 1, 1));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation(EmpSpec()).ok());
    for (int i = 1; i <= 12; ++i) {
      ASSERT_TRUE((*db)->Insert("emp", Emp(i, 100 + i, "E")).ok());
    }
    ASSERT_TRUE((*db)->AdvanceClock(D(2001, 1, 1)).ok());
    ASSERT_TRUE(
        (*db)->Update("emp", {Value(int64_t{5})}, Emp(5, 555, "E")).ok());
    expected = SalaryStore(db->get())->statistics().Encode();
    // No checkpoint: recovery must rebuild statistics from WAL replay.
  }
  auto db = ArchIS::Open(opts, D(2000, 1, 1));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(SalaryStore(db->get())->statistics().Encode(), expected);
}

TEST(StatsCatalogTest, ZoneMapBlockCountsFeedThePlanner) {
  // Hires spread over 12 years (ids in hire order, so the id-sorted
  // BlockZIP blocks have time-correlated zone maps), everyone terminated
  // before the freeze so every version is closed.
  ArchISOptions opts;
  opts.segment.compress = true;
  // Small compressed-block target so 600 near-identical rows still split
  // into several blocks.
  opts.segment.block_size = 256;
  ArchIS db(opts, D(2000, 1, 1));
  ASSERT_TRUE(db.CreateRelation(EmpSpec()).ok());
  for (int i = 1; i <= 600; ++i) {
    if (i % 50 == 0) {
      ASSERT_TRUE(db.AdvanceClock(D(2000 + i / 50, 1, 1)).ok());
    }
    ASSERT_TRUE(db.Insert("emp", Emp(i, 100 + i, "E")).ok());
  }
  ASSERT_TRUE(db.AdvanceClock(D(2015, 1, 1)).ok());
  for (int i = 1; i <= 600; ++i) {
    ASSERT_TRUE(db.Delete("emp", {Value(int64_t{i})}).ok());
  }
  ASSERT_TRUE(db.AdvanceClock(D(2016, 1, 1)).ok());
  ASSERT_TRUE(db.FreezeAll().ok());
  const SegmentedStore* store = SalaryStore(&db);
  ASSERT_FALSE(store->segments().empty());
  const uint64_t all = store->segments()[0].blocks;
  ASSERT_GT(all, 1u);
  // No window: every block would be decompressed.
  EXPECT_EQ(store->BlocksOverlapping(0, std::nullopt), all);
  // A window before any history prunes every block ...
  EXPECT_EQ(store->BlocksOverlapping(
                0, MakeInterval(D(1990, 1, 1), D(1991, 1, 1))),
            0u);
  // ... and a window over the first hire year keeps only the early blocks
  // (partial pruning — the count the planner charges for a merge-scan).
  const uint64_t early = store->BlocksOverlapping(
      0, MakeInterval(D(2000, 1, 1), D(2000, 12, 1)));
  EXPECT_GT(early, 0u);
  EXPECT_LT(early, all);
}

// ---------------------------------------------------------------------------
// Plan-choice goldens
// ---------------------------------------------------------------------------

TEST(PlannerTest, SingleObjectLookupPicksIdIndexOnWideData) {
  auto db = BuildWideShape(/*ids=*/200, /*compress=*/false);
  SqlXmlPlan plan = SalaryPlan(/*id=*/7, /*snapshot=*/D(2000, 6, 1));
  auto physical = PlanQuery(db->archiver(), plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  // One 400-tuple segment: probing the id index beats merging the whole
  // covering segment.
  EXPECT_EQ(physical->vars[0].path, AccessPath::kIdIndex);
  EXPECT_TRUE(physical->cost_based);
  EXPECT_GT(physical->est_total_cost, 0.0);
}

TEST(PlannerTest, SameQueryFlipsToMergeScanOnDeepData) {
  // The flip: the identical query shape (single-object snapshot lookup)
  // chooses the other access path once the data is split into many tiny
  // segments — probing every segment costs more than merging the one
  // covering segment.
  metrics::Counter* flips = metrics::Registry::Global().GetCounter(
      "archis_planner_merge_beats_index_total",
      "Id-restricted variables where the merge-scan was estimated cheaper "
      "than the id index (the data-shape-driven plan flip)");
  auto db = BuildDeepShape(/*ids=*/2, /*periods=*/12);
  SqlXmlPlan plan = SalaryPlan(/*id=*/1, /*snapshot=*/D(2000, 6, 1));
  const uint64_t flips_before = flips->value();
  auto physical = PlanQuery(db->archiver(), plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  EXPECT_EQ(physical->vars[0].path, AccessPath::kSegmentMerge);
  EXPECT_EQ(flips->value(), flips_before + 1);
  // And the flipped plan still answers identically to the fixed shape.
  auto chosen = db->Execute(plan, nullptr, nullptr, PlanForce::kCostBased);
  auto fixed = db->Execute(plan, nullptr, nullptr, PlanForce::kFixed);
  ASSERT_TRUE(chosen.ok());
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(xml::Serialize(*chosen), xml::Serialize(*fixed));
}

TEST(PlannerTest, PlanCacheReusesUntilMutationInvalidates) {
  metrics::Counter* hits = metrics::Registry::Global().GetCounter(
      "archis_planner_cache_hits_total",
      "Executions that reused a cached physical plan (same structural "
      "key, no intervening mutation)");
  metrics::Counter* misses = metrics::Registry::Global().GetCounter(
      "archis_planner_cache_misses_total",
      "Executions that ran the cost-based planner (cold or stale "
      "cache entry)");
  auto db = BuildWideShape(/*ids=*/30, /*compress=*/false);
  SqlXmlPlan plan = SalaryPlan(/*id=*/3, /*snapshot=*/D(2000, 6, 1));
  const uint64_t h0 = hits->value();
  const uint64_t m0 = misses->value();
  ASSERT_TRUE(db->Execute(plan, nullptr, nullptr, PlanForce::kCostBased).ok());
  EXPECT_EQ(misses->value(), m0 + 1);  // cold: planned
  EXPECT_EQ(hits->value(), h0);
  ASSERT_TRUE(db->Execute(plan, nullptr, nullptr, PlanForce::kCostBased).ok());
  EXPECT_EQ(misses->value(), m0 + 1);  // warm: reused
  EXPECT_EQ(hits->value(), h0 + 1);
  // A different constant is a different structural key — no false hit.
  SqlXmlPlan other = SalaryPlan(/*id=*/4, /*snapshot=*/D(2000, 6, 1));
  ASSERT_TRUE(db->Execute(other, nullptr, nullptr, PlanForce::kCostBased).ok());
  EXPECT_EQ(misses->value(), m0 + 2);
  // Any statistics-changing mutation bumps the epoch: the cached entry
  // goes stale and the same plan replans against the new statistics.
  ASSERT_TRUE(db->FreezeAll().ok());
  ASSERT_TRUE(db->Execute(plan, nullptr, nullptr, PlanForce::kCostBased).ok());
  EXPECT_EQ(misses->value(), m0 + 3);
  EXPECT_EQ(hits->value(), h0 + 1);
}

TEST(PlannerTest, PlanCacheKeyCoversSemiJoinOffsetAndAggregateFields) {
  metrics::Counter* misses = metrics::Registry::Global().GetCounter(
      "archis_planner_cache_misses_total",
      "Executions that ran the cost-based planner (cold or stale "
      "cache entry)");
  auto db = BuildWideShape(/*ids=*/30, /*compress=*/false);
  // The Q6 shape: max(s2 - s1) over two salary versions of one id with
  // s1 < s2 <= s1 + 730.
  SqlXmlPlan base;
  base.vars = {SalaryPlan().vars[0], SalaryPlan().vars[0]};
  CrossCond after;
  after.lhs = {1, HCol::kTstart};
  after.op = CompareOp::kGt;
  after.rhs = {0, HCol::kTstart};
  CrossCond within = after;
  within.op = CompareOp::kLe;
  within.rhs_offset_days = 730;
  base.cross_conds = {after, within};
  base.aggregate = PlanAggregate::kMaxValue;
  base.agg_expr.arg = {1, HCol::kValue};
  base.agg_expr.minus = HColRef{0, HCol::kValue};

  // Each variant differs from `base` in exactly one of the new fields.
  std::vector<SqlXmlPlan> variants(4, base);
  variants[0].vars[0].predicate_only = true;
  variants[1].cross_conds[1].rhs_offset_days = 365;
  variants[2].agg_expr.arg = {1, HCol::kId};
  variants[3].agg_expr.minus.reset();

  std::string base_key;
  AppendPlanCacheKey(base, &base_key);
  ASSERT_TRUE(db->Execute(base, nullptr, nullptr, PlanForce::kCostBased).ok());
  for (size_t i = 0; i < variants.size(); ++i) {
    std::string key;
    AppendPlanCacheKey(variants[i], &key);
    EXPECT_NE(key, base_key) << "variant " << i;
    // A distinct key is a distinct cache entry: the variant plans afresh.
    const uint64_t m0 = misses->value();
    ASSERT_TRUE(
        db->Execute(variants[i], nullptr, nullptr, PlanForce::kCostBased).ok());
    EXPECT_EQ(misses->value(), m0 + 1) << "variant " << i;
  }
  // The predicate-only flag changes the physical plan itself: a lone
  // semi-join input has no facts to stream into the aggregate.
  SqlXmlPlan count = SalaryPlan();
  count.aggregate = PlanAggregate::kCount;
  auto streamed = PlanQuery(db->archiver(), count);
  count.vars[0].predicate_only = true;
  auto buffered = PlanQuery(db->archiver(), count);
  ASSERT_TRUE(streamed.ok() && buffered.ok());
  EXPECT_TRUE(streamed->stream_aggregate);
  EXPECT_FALSE(buffered->stream_aggregate);
}

TEST(PlannerTest, FetchOrderPutsMostSelectiveVariableFirst) {
  auto db = BuildWideShape(/*ids=*/100, /*compress=*/false);
  SqlXmlPlan plan;
  PlanVar title;
  title.relation = "emp";
  title.attribute = "title";
  PlanVar salary;
  salary.relation = "emp";
  salary.attribute = "salary";
  salary.id_eq = 3;  // single object: far fewer estimated rows
  plan.vars = {title, salary};
  OutputSpec out;
  out.kind = OutputSpec::Kind::kElement;
  out.name = "t";
  out.column = HColRef{0, HCol::kValue};
  plan.output = out;
  auto physical = PlanQuery(db->archiver(), plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  ASSERT_EQ(physical->fetch_order.size(), 2u);
  EXPECT_EQ(physical->fetch_order[0], 1u);  // the id-restricted variable
  EXPECT_LT(physical->vars[1].est_rows, physical->vars[0].est_rows);
}

TEST(PlannerTest, SingleVariableAggregatePushesDownBelowTheJoin) {
  auto db = BuildWideShape(/*ids=*/50, /*compress=*/false);
  SqlXmlPlan plan = SalaryPlan();
  plan.aggregate = PlanAggregate::kCount;
  auto physical = PlanQuery(db->archiver(), plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  EXPECT_TRUE(physical->stream_aggregate);
  // Pushed-down and buffered pipelines must agree on the answer.
  auto pushed = db->Execute(plan, nullptr, nullptr, PlanForce::kCostBased);
  auto fixed = db->Execute(plan, nullptr, nullptr, PlanForce::kFixed);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(xml::Serialize(*pushed), xml::Serialize(*fixed));
  // Rendered as native count() is: the bare number inside <results>.
  EXPECT_EQ((*pushed)->ChildElements().size(), 0u);
  EXPECT_EQ(xml::Serialize(*pushed),
            "<results>" + (*pushed)->StringValue() + "</results>");
  EXPECT_NE((*pushed)->StringValue(), "0");
}

// ---------------------------------------------------------------------------
// Surfacing: PlanForce, PlanStats, EXPLAIN profile
// ---------------------------------------------------------------------------

TEST(PlannerSurfacingTest, ForcePlanPinsEitherShapeWithIdenticalAnswers) {
  auto db = BuildDeepShape(/*ids=*/4, /*periods=*/6);
  const std::string q =
      "for $s in doc(\"emps.xml\")/emps/emp/salary return $s";
  QueryOptions cost;
  cost.force_plan = PlanForce::kCostBased;
  QueryOptions fixed;
  fixed.force_plan = PlanForce::kFixed;
  auto a = db->Query(q, cost);
  auto b = db->Query(q, fixed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->path, QueryPath::kTranslated);
  EXPECT_EQ(xml::Serialize(a->xml), xml::Serialize(b->xml));
  EXPECT_TRUE(a->stats.cost_based_plan);
  EXPECT_FALSE(b->stats.cost_based_plan);
  EXPECT_GT(a->stats.est_cost, 0.0);
  EXPECT_EQ(a->stats.result_rows, b->stats.result_rows);
}

TEST(PlannerSurfacingTest, ProfileReportsEstimatedVsActualRows) {
  auto db = BuildDeepShape(/*ids=*/4, /*periods=*/6);
  QueryOptions opts;
  opts.collect_profile = true;
  auto result = db->Query(
      "for $s in doc(\"emps.xml\")/emps/emp/salary return $s", opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->path, QueryPath::kTranslated);
  ASSERT_TRUE(result->profile.has_value());
  const trace::Span* execute =
      trace::FindSpan(result->profile->root, "execute");
  ASSERT_NE(execute, nullptr);
  bool saw_est = false, saw_actual = false;
  for (const auto& [key, value] : execute->notes) {
    if (key == "est_rows") saw_est = true;
    if (key == "actual_rows") {
      saw_actual = true;
      EXPECT_EQ(value, std::to_string(result->stats.result_rows));
    }
  }
  EXPECT_TRUE(saw_est);
  EXPECT_TRUE(saw_actual);
  // The plan span renders the physical shape chosen by the planner.
  const trace::Span* plan = trace::FindSpan(result->profile->root, "plan");
  ASSERT_NE(plan, nullptr);
  bool saw_physical = false;
  for (const auto& [key, value] : plan->notes) {
    if (key == "physical") {
      saw_physical = true;
      EXPECT_NE(value.find("cost-based"), std::string::npos) << value;
    }
  }
  EXPECT_TRUE(saw_physical);
  // Actual rows also land in the EXPLAIN rendering.
  EXPECT_NE(result->profile->Render().find("actual_rows"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Recovery regression: the auto-checkpoint + crash mode of recovery_fuzz,
// pinned as a deterministic matrix.
// ---------------------------------------------------------------------------

TEST(AutoCheckpointCrashRegression, RecoversToDurablePrefixAcrossMatrix) {
  const uint32_t seeds[] = {7, 23, 41};
  const uint64_t fail_offsets[] = {3000, 9000, 17000};
  for (uint32_t seed : seeds) {
    for (uint64_t fail_at : fail_offsets) {
      const std::string path = TempPath("planner_autockpt_" +
                                        std::to_string(seed) + "_" +
                                        std::to_string(fail_at) + ".wal");
      ArchISOptions opts;
      opts.wal.path = path;
      opts.wal.checkpoint_after_bytes = 4096;
      opts.wal.fail_after_bytes = fail_at;
      ArchIS shadow(ArchISOptions{}, D(1995, 1, 1));
      {
        auto db = ArchIS::Open(opts, D(1995, 1, 1));
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        ScriptedDmlConfig cfg;
        cfg.seed = seed;
        cfg.transactions = 24;
        auto run = RunScriptedDml(db->get(), &shadow, cfg);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
      }
      opts.wal.fail_after_bytes = 0;
      auto recovered = ArchIS::Open(opts, D(1995, 1, 1));
      ASSERT_TRUE(recovered.ok())
          << "seed=" << seed << " fail_at=" << fail_at << ": "
          << recovered.status().ToString();
      EXPECT_EQ(SerializeAllHistories(recovered->get()),
                SerializeAllHistories(&shadow))
          << "seed=" << seed << " fail_at=" << fail_at;
    }
  }
}

}  // namespace
}  // namespace archis::core
