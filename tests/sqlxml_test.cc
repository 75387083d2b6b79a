// Unit tests for the SQL/XML plan executor: hand-built plans over known
// H-table contents — pushdowns, join groups, cross conditions, output
// construction and the scalar/temporal aggregates.
#include <gtest/gtest.h>

#include "archis/archis.h"
#include "xml/serializer.h"

namespace archis::core {
namespace {

using minirel::CompareOp;
using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;
using minirel::Value;

Date D(int y, int m, int d) { return Date::FromYmd(y, m, d); }

/// Two employees with salary and title histories, plus one dept relation.
class SqlXmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ArchISOptions opts;
    opts.segment.umin = 0.4;
    db_ = std::make_unique<ArchIS>(opts, D(2000, 1, 1));
    RelationSpec emp;
    emp.name = "emp";
    emp.schema = Schema({{"id", DataType::kInt64},
                         {"salary", DataType::kInt64},
                         {"title", DataType::kString}});
    emp.key_columns = {"id"};
    emp.doc_name = "emps.xml";
    emp.root_tag = "emps";
    ASSERT_TRUE(db_->CreateRelation(emp).ok());
    RelationSpec dept;
    dept.name = "dept";
    dept.schema =
        Schema({{"dno", DataType::kInt64}, {"mgr", DataType::kInt64}});
    dept.key_columns = {"dno"};
    dept.doc_name = "depts.xml";
    dept.root_tag = "depts";
    ASSERT_TRUE(db_->CreateRelation(dept).ok());
    // id 1: salary 100 -> 200 (2001), title A throughout.
    // id 2: salary 500 throughout, title B -> C (2002).
    Ins("emp", {Value(int64_t{1}), Value(int64_t{100}), Value("A")});
    Ins("emp", {Value(int64_t{2}), Value(int64_t{500}), Value("B")});
    Ins("dept", {Value(int64_t{7}), Value(int64_t{1})});
    Clock(D(2001, 1, 1));
    Upd("emp", Value(int64_t{1}),
        {Value(int64_t{1}), Value(int64_t{200}), Value("A")});
    Clock(D(2002, 1, 1));
    Upd("emp", Value(int64_t{2}),
        {Value(int64_t{2}), Value(int64_t{500}), Value("C")});
    Clock(D(2003, 1, 1));
  }

  void Ins(const std::string& rel, Tuple t) {
    ASSERT_TRUE(db_->Insert(rel, t).ok());
  }
  void Upd(const std::string& rel, Value key, Tuple t) {
    ASSERT_TRUE(db_->Update(rel, {key}, t).ok());
  }
  void Clock(Date d) { ASSERT_TRUE(db_->AdvanceClock(d).ok()); }

  xml::XmlNodePtr Run(const SqlXmlPlan& plan, PlanStats* stats = nullptr) {
    auto r = db_->Execute(plan, stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  std::unique_ptr<ArchIS> db_;
};

TEST_F(SqlXmlTest, SingleVarValueConditionPushdown) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  v.value_conds.push_back({CompareOp::kGe, Value(int64_t{200})});
  plan.vars.push_back(v);
  OutputSpec out;
  out.kind = OutputSpec::Kind::kElement;
  out.name = "salary";
  out.column = HColRef{0, HCol::kValue};
  plan.output = out;
  auto xml = Run(plan);
  // 200 (id 1) and 500 (id 2): two rows.
  EXPECT_EQ(xml->ChildrenNamed("salary").size(), 2u);
}

TEST_F(SqlXmlTest, SnapshotPushdownSelectsVersionAtPoint) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  v.snapshot = D(2000, 6, 1);
  plan.vars.push_back(v);
  OutputSpec out;
  out.kind = OutputSpec::Kind::kElement;
  out.name = "s";
  out.column = HColRef{0, HCol::kValue};
  plan.output = out;
  auto xml = Run(plan);
  auto rows = xml->ChildrenNamed("s");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->StringValue(), "100");  // pre-raise version of id 1
  EXPECT_EQ(rows[1]->StringValue(), "500");
}

TEST_F(SqlXmlTest, IdEqUsesIndexAndRestrictsRows) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  v.id_eq = 1;
  plan.vars.push_back(v);
  OutputSpec out;
  out.kind = OutputSpec::Kind::kElement;
  out.name = "s";
  out.attr_var = 0;
  out.column = HColRef{0, HCol::kValue};
  plan.output = out;
  PlanStats stats;
  auto xml = Run(plan, &stats);
  EXPECT_EQ(xml->ChildrenNamed("s").size(), 2u);  // both versions of id 1
  EXPECT_LE(stats.rows_scanned, 3u);              // not the whole table
}

TEST_F(SqlXmlTest, SameGroupVarsMergeJoinOnId) {
  SqlXmlPlan plan;
  PlanVar s, t;
  s.relation = "emp";
  s.attribute = "salary";
  t.relation = "emp";
  t.attribute = "title";
  plan.vars = {s, t};  // same join_group (0) -> id join
  OutputSpec out;
  out.kind = OutputSpec::Kind::kElement;
  out.name = "row";
  OutputSpec sc;
  sc.kind = OutputSpec::Kind::kColumn;
  sc.column = HColRef{0, HCol::kValue};
  OutputSpec tc;
  tc.kind = OutputSpec::Kind::kColumn;
  tc.column = HColRef{1, HCol::kValue};
  out.children = {sc, tc};
  plan.output = out;
  auto xml = Run(plan);
  // id1: 2 salaries x 1 title; id2: 1 salary x 2 titles = 4 rows.
  EXPECT_EQ(xml->ChildrenNamed("row").size(), 4u);
}

TEST_F(SqlXmlTest, CrossGroupVarsCrossProductWithCond) {
  SqlXmlPlan plan;
  PlanVar e, d;
  e.relation = "emp";
  e.attribute = "";  // key table
  e.join_group = 0;
  d.relation = "dept";
  d.attribute = "mgr";
  d.join_group = 1;
  plan.vars = {e, d};
  // emp.id == dept.mgr (employee 1 manages dept 7).
  CrossCond cond;
  cond.kind = CrossCond::Kind::kCompare;
  cond.lhs = {0, HCol::kId};
  cond.op = CompareOp::kEq;
  cond.rhs = {1, HCol::kValue};
  plan.cross_conds.push_back(cond);
  OutputSpec out;
  out.kind = OutputSpec::Kind::kElement;
  out.name = "mgr";
  out.column = HColRef{0, HCol::kId};
  plan.output = out;
  auto xml = Run(plan);
  auto rows = xml->ChildrenNamed("mgr");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->StringValue(), "1");
}

TEST_F(SqlXmlTest, TemporalCrossCondition) {
  // Salary versions overlapping title versions of the same id.
  SqlXmlPlan plan;
  PlanVar s, t;
  s.relation = "emp";
  s.attribute = "salary";
  t.relation = "emp";
  t.attribute = "title";
  plan.vars = {s, t};
  CrossCond cond;
  cond.kind = CrossCond::Kind::kOverlaps;
  cond.lhs = {0, HCol::kTstart};
  cond.rhs = {1, HCol::kTstart};
  plan.cross_conds.push_back(cond);
  plan.aggregate = PlanAggregate::kCount;
  auto xml = Run(plan);
  // id1: both salaries overlap title A (2); id2: salary overlaps B and C
  // (2) -> 4, rendered as native count() is: <results>4</results>.
  EXPECT_EQ(xml::Serialize(xml), "<results>4</results>");
}

TEST_F(SqlXmlTest, AggAvgCountMaxDistinct) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  plan.vars.push_back(v);

  // Values render as native XQuery numbers: integers bare, others with
  // six decimals.
  plan.aggregate = PlanAggregate::kCount;
  EXPECT_EQ(Run(plan)->StringValue(), "3");
  plan.aggregate = PlanAggregate::kMaxValue;
  EXPECT_EQ(Run(plan)->StringValue(), "500");
  plan.aggregate = PlanAggregate::kMinValue;
  EXPECT_EQ(Run(plan)->StringValue(), "100");
  plan.aggregate = PlanAggregate::kSumValue;
  EXPECT_EQ(Run(plan)->StringValue(), "800");
  plan.aggregate = PlanAggregate::kAvgValue;
  EXPECT_EQ(Run(plan)->StringValue(), "266.666667");

  // Distinct ids: the key table iterates objects, and the salary variable
  // is a predicate-only semi-join, so it does not multiply the facts.
  PlanVar key;
  key.relation = "emp";
  plan.vars = {key, v};
  plan.vars[1].predicate_only = true;
  plan.agg_expr.arg = {0, HCol::kId};
  plan.aggregate = PlanAggregate::kCount;
  EXPECT_EQ(Run(plan)->StringValue(), "2");
  // Without the flag every (id, salary version) pair is a fact.
  plan.vars[1].predicate_only = false;
  EXPECT_EQ(Run(plan)->StringValue(), "3");
}

TEST_F(SqlXmlTest, EmptyAggregatesRenderAsNative) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  v.value_conds.push_back({CompareOp::kGt, Value(int64_t{1000})});
  plan.vars.push_back(v);
  plan.aggregate = PlanAggregate::kCount;
  EXPECT_EQ(xml::Serialize(Run(plan)), "<results>0</results>");
  plan.aggregate = PlanAggregate::kSumValue;
  EXPECT_EQ(xml::Serialize(Run(plan)), "<results>0</results>");
  for (PlanAggregate agg : {PlanAggregate::kAvgValue, PlanAggregate::kMaxValue,
                            PlanAggregate::kMinValue}) {
    plan.aggregate = agg;
    EXPECT_EQ(xml::Serialize(Run(plan)), "<results/>");
  }
}

TEST_F(SqlXmlTest, MaxIncreaseWindowed) {
  // The temporal self-join of Table 3's Q6 over the generic join:
  // max(s2 - s1) for versions s1, s2 of one id with s1 < s2 <= s1 + w.
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  plan.vars = {v, v};
  CrossCond after;
  after.lhs = {1, HCol::kTstart};
  after.op = CompareOp::kGt;
  after.rhs = {0, HCol::kTstart};
  CrossCond within = after;
  within.op = CompareOp::kLe;
  within.rhs_offset_days = 400;
  plan.cross_conds = {after, within};
  plan.aggregate = PlanAggregate::kMaxValue;
  plan.agg_expr.arg = {1, HCol::kValue};
  plan.agg_expr.minus = HColRef{0, HCol::kValue};
  // id1 went 100 -> 200 within 366 days: increase 100.
  EXPECT_EQ(xml::Serialize(Run(plan)), "<results>100</results>");
  // Reversed operands make every delta negative; max keeps the sign
  // (there is no floor at 0).
  std::swap(plan.agg_expr.arg, *plan.agg_expr.minus);
  EXPECT_EQ(xml::Serialize(Run(plan)), "<results>-100</results>");
  // With a tiny window no pair qualifies: max of nothing is empty.
  plan.cross_conds[1].rhs_offset_days = 10;
  EXPECT_EQ(xml::Serialize(Run(plan)), "<results/>");
}

TEST_F(SqlXmlTest, TAvgEmitsStepHistory) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  plan.vars.push_back(v);
  plan.aggregate = PlanAggregate::kTAvg;
  auto xml = Run(plan);
  auto steps = xml->ChildrenNamed("tavg");
  ASSERT_EQ(steps.size(), 2u);  // (100+500)/2=300, then (200+500)/2=350
  EXPECT_EQ(steps[0]->StringValue(), "300.00");
  EXPECT_EQ(steps[1]->StringValue(), "350.00");
  EXPECT_TRUE(steps[1]->Interval()->is_current());
}

TEST_F(SqlXmlTest, GroupedXmlAggOutput) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  plan.vars.push_back(v);
  OutputSpec item;
  item.kind = OutputSpec::Kind::kElement;
  item.name = "salary";
  item.attr_var = 0;
  item.column = HColRef{0, HCol::kValue};
  OutputSpec agg;
  agg.kind = OutputSpec::Kind::kAgg;
  agg.children.push_back(item);
  OutputSpec root;
  root.kind = OutputSpec::Kind::kElement;
  root.name = "employee_salaries";
  root.children.push_back(agg);
  plan.output = root;
  auto xml = Run(plan);
  // One group element per id.
  auto groups = xml->ChildrenNamed("employee_salaries");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0]->ChildrenNamed("salary").size(), 2u);  // id 1
  EXPECT_EQ(groups[1]->ChildrenNamed("salary").size(), 1u);  // id 2
}

TEST_F(SqlXmlTest, IntervalOutputSpec) {
  SqlXmlPlan plan;
  PlanVar s, t;
  s.relation = "emp";
  s.attribute = "salary";
  t.relation = "emp";
  t.attribute = "title";
  plan.vars = {s, t};
  OutputSpec out;
  out.kind = OutputSpec::Kind::kInterval;
  out.ivl_lhs = 0;
  out.ivl_rhs = 1;
  plan.output = out;
  auto xml = Run(plan);
  // Non-overlapping pairs produce nothing; overlapping pairs produce
  // <interval> children. id2's salary overlaps both its titles.
  EXPECT_GE(xml->ChildrenNamed("interval").size(), 3u);
  for (const auto& iv : xml->ChildrenNamed("interval")) {
    EXPECT_TRUE(iv->Interval().ok());
  }
}

TEST_F(SqlXmlTest, EmptyPlanRejected) {
  SqlXmlPlan plan;
  EXPECT_EQ(db_->Execute(plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlXmlTest, UnknownRelationSurfaces) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "ghost";
  plan.vars.push_back(v);
  EXPECT_EQ(db_->Execute(plan).status().code(), StatusCode::kNotFound);
}

TEST_F(SqlXmlTest, ToSqlMentionsEverything) {
  SqlXmlPlan plan;
  PlanVar v;
  v.relation = "emp";
  v.attribute = "salary";
  v.xq_name = "$s";
  v.snapshot = D(2001, 6, 1);
  v.value_conds.push_back({CompareOp::kGt, Value(int64_t{100})});
  v.current_only = true;
  plan.vars.push_back(v);
  plan.aggregate = PlanAggregate::kAvgValue;
  std::string sql = plan.ToSql();
  EXPECT_NE(sql.find("emp_salary AS s"), std::string::npos);
  EXPECT_NE(sql.find("AVG("), std::string::npos);
  EXPECT_NE(sql.find("SEGMENT_OF"), std::string::npos);
  EXPECT_NE(sql.find("> '100'"), std::string::npos);
  EXPECT_NE(sql.find("9999-12-31"), std::string::npos);
}

}  // namespace
}  // namespace archis::core
