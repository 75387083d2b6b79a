// End-to-end integration tests: current DB -> change capture -> H-tables ->
// queries (translated SQL/XML and native XQuery), mirroring the paper's
// running example (Tables 1-2, Figures 1-4, Queries 1-8).
#include <gtest/gtest.h>

#include "archis/archis.h"
#include "xml/serializer.h"

namespace archis::core {
namespace {

using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;
using minirel::Value;

Schema EmpSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"salary", DataType::kInt64},
                 {"title", DataType::kString},
                 {"deptno", DataType::kString}});
}

Date D(int y, int m, int d) { return Date::FromYmd(y, m, d); }

/// Builds the paper's Table 1 history for employee Bob (id 1001):
///   1995-01-01  hired: 60000, Engineer, d01
///   1995-06-01  salary 70000
///   1995-10-01  title Sr Engineer, dept d02
///   1996-02-01  title TechLeader
class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ArchISOptions opts;
    opts.segment.enabled = true;
    opts.segment.umin = 0.4;
    db_ = std::make_unique<ArchIS>(opts, D(1995, 1, 1));
    RelationSpec spec;
    spec.name = "employees";
    spec.schema = EmpSchema();
    spec.key_columns = {"id"};
    spec.doc_name = "employees.xml";
    ASSERT_TRUE(db_->CreateRelation(spec).ok());
    Put(D(1995, 1, 1), 60000, "Engineer", "d01", /*insert=*/true);
    Put(D(1995, 6, 1), 70000, "Engineer", "d01");
    Put(D(1995, 10, 1), 70000, "Sr Engineer", "d02");
    Put(D(1996, 2, 1), 70000, "TechLeader", "d02");
    ASSERT_TRUE(db_->AdvanceClock(D(1997, 1, 1)).ok());
  }

  void Put(Date when, int64_t salary, const std::string& title,
           const std::string& dept, bool insert = false) {
    ASSERT_TRUE(db_->AdvanceClock(when).ok());
    Tuple row{Value(int64_t{1001}), Value("Bob"), Value(salary),
              Value(title), Value(dept)};
    if (insert) {
      ASSERT_TRUE(db_->Insert("employees", row).ok());
    } else {
      ASSERT_TRUE(db_->Update("employees", {Value(int64_t{1001})}, row).ok());
    }
  }

  std::unique_ptr<ArchIS> db_;
};

TEST_F(PaperExampleTest, SnapshotReconstructsCurrentRow) {
  auto snap = db_->Snapshot("employees", D(1995, 7, 15));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(snap->size(), 1u);
  const Tuple& row = (*snap)[0];
  EXPECT_EQ(row.at(0).AsInt(), 1001);
  EXPECT_EQ(row.at(1).AsString(), "Bob");
  EXPECT_EQ(row.at(2).AsInt(), 70000);
  EXPECT_EQ(row.at(3).AsString(), "Engineer");
  EXPECT_EQ(row.at(4).AsString(), "d01");
}

TEST_F(PaperExampleTest, SnapshotBeforeHireIsEmpty) {
  auto snap = db_->Snapshot("employees", D(1994, 12, 31));
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->empty());
}

TEST_F(PaperExampleTest, HistoryIsTemporallyGrouped) {
  // The salary history has exactly two versions (60000, 70000) even though
  // four updates ran — unchanged attributes keep their interval.
  auto set = db_->archiver().htables("employees");
  ASSERT_TRUE(set.ok());
  auto salary = (*set)->attribute_store("salary");
  ASSERT_TRUE(salary.ok());
  std::vector<std::pair<int64_t, TimeInterval>> versions;
  ASSERT_TRUE((*salary)
                  ->ScanHistory([&](const Tuple& row) {
                    versions.push_back(
                        {row.at(1).AsInt(),
                         TimeInterval(row.at(2).AsDate(),
                                      row.at(3).AsDate())});
                    return true;
                  })
                  .ok());
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].first, 60000);
  EXPECT_EQ(versions[0].second.tstart, D(1995, 1, 1));
  EXPECT_EQ(versions[0].second.tend, D(1995, 5, 31));  // paper Table 1
  EXPECT_EQ(versions[1].first, 70000);
  EXPECT_EQ(versions[1].second.tstart, D(1995, 6, 1));
  EXPECT_TRUE(versions[1].second.is_current());

  // Title has three versions; name has one.
  auto title = (*set)->attribute_store("title");
  ASSERT_TRUE(title.ok());
  EXPECT_EQ((*title)->LogicalTuples(), 3u);
  auto name = (*set)->attribute_store("name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ((*name)->LogicalTuples(), 1u);
}

TEST_F(PaperExampleTest, PublishedHDocumentMatchesFigure3Shape) {
  auto doc = db_->PublishHistory("employees");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ((*doc)->name(), "employees");
  auto employees = (*doc)->ChildrenNamed("employee");
  ASSERT_EQ(employees.size(), 1u);
  const auto& bob = employees[0];
  EXPECT_EQ(bob->ChildrenNamed("name").size(), 1u);
  EXPECT_EQ(bob->ChildrenNamed("salary").size(), 2u);
  EXPECT_EQ(bob->ChildrenNamed("title").size(), 3u);
  EXPECT_EQ(bob->ChildrenNamed("deptno").size(), 2u);
  // Temporal covering constraint: employee interval covers all children.
  auto bob_iv = bob->Interval();
  ASSERT_TRUE(bob_iv.ok());
  for (const auto& child : bob->ChildElements()) {
    auto iv = child->Interval();
    ASSERT_TRUE(iv.ok());
    EXPECT_TRUE(bob_iv->Contains(*iv))
        << child->name() << " " << iv->ToString() << " not in "
        << bob_iv->ToString();
  }
}

TEST_F(PaperExampleTest, Query1TemporalProjectionTranslated) {
  // Paper QUERY 1: title history of Bob.
  const std::string query =
      "element title_history {"
      "  for $t in doc(\"employees.xml\")/employees/employee[name=\"Bob\"]"
      "           /title return $t }";
  auto result = db_->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->path, QueryPath::kTranslated);
  auto hist = result->xml->ChildrenNamed("title_history");
  ASSERT_EQ(hist.size(), 1u);
  auto titles = hist[0]->ChildrenNamed("title");
  ASSERT_EQ(titles.size(), 3u);
  EXPECT_EQ(titles[0]->StringValue(), "Engineer");
  EXPECT_EQ(titles[1]->StringValue(), "Sr Engineer");
  EXPECT_EQ(titles[2]->StringValue(), "TechLeader");
  // SQL/XML rendering names the H-tables.
  auto plan = db_->Translate(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string sql = plan->ToSql();
  EXPECT_NE(sql.find("employees_title"), std::string::npos);
  EXPECT_NE(sql.find("XMLAgg"), std::string::npos);
}

TEST_F(PaperExampleTest, Query2SnapshotTranslated) {
  auto result = db_->Query(
      "for $m in doc(\"employees.xml\")/employees/employee/salary"
      "[tstart(.) <= xs:date(\"1995-07-15\") and "
      " tend(.) >= xs:date(\"1995-07-15\")] return $m");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->path, QueryPath::kTranslated);
  auto salaries = result->xml->ChildrenNamed("salary");
  ASSERT_EQ(salaries.size(), 1u);
  EXPECT_EQ(salaries[0]->StringValue(), "70000");
}

TEST_F(PaperExampleTest, Query3SlicingTranslated) {
  auto result = db_->Query(
      "for $e in doc(\"employees.xml\")/employees/employee"
      "[toverlaps(., telement(xs:date(\"1995-02-01\"),"
      " xs:date(\"1995-03-01\")))] return $e/name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->path, QueryPath::kTranslated);
  auto names = result->xml->ChildrenNamed("name");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0]->StringValue(), "Bob");
}

TEST_F(PaperExampleTest, TranslatedAndNativeAgree) {
  const std::string query =
      "for $t in doc(\"employees.xml\")/employees/employee[name=\"Bob\"]"
      "/title return $t";
  auto translated = db_->Query(query);
  ASSERT_TRUE(translated.ok());
  ASSERT_EQ(translated->path, QueryPath::kTranslated);
  auto native = db_->QueryNative(query);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  ASSERT_EQ(native->size(), 3u);
  auto titles = translated->xml->ChildrenNamed("title");
  ASSERT_EQ(titles.size(), native->size());
  for (size_t i = 0; i < titles.size(); ++i) {
    EXPECT_EQ(titles[i]->StringValue(), (*native)[i].node()->StringValue());
    EXPECT_EQ(*titles[i]->Attr("tstart"),
              *(*native)[i].node()->Attr("tstart"));
  }
}

TEST_F(PaperExampleTest, NativeFallbackForRestructuringQuery) {
  // Paper QUERY 6 (restructuring) is outside the translator subset.
  auto result = db_->Query(
      "for $e in doc(\"employees.xml\")/employees/employee[name=\"Bob\"] "
      "let $d := $e/deptno let $t := $e/title "
      "let $overlaps := restructure($d, $t) "
      "return max($overlaps)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->path, QueryPath::kNativeFallback);
  // Longest unchanged (dept,title) period: the ongoing d02+TechLeader run,
  // 1996-02-01 .. current date (1997-01-01) = 336 days, beating the closed
  // d01+Engineer run of 273 days.
  ASSERT_FALSE(result->xml->StringValue().empty());
  EXPECT_EQ(result->xml->StringValue(), "336");
}

TEST_F(PaperExampleTest, DeleteClosesAllIntervals) {
  ASSERT_TRUE(db_->AdvanceClock(D(1997, 6, 1)).ok());
  ASSERT_TRUE(db_->Delete("employees", {Value(int64_t{1001})}).ok());
  auto snap_before = db_->Snapshot("employees", D(1997, 5, 1));
  ASSERT_TRUE(snap_before.ok());
  EXPECT_EQ(snap_before->size(), 1u);
  auto snap_after = db_->Snapshot("employees", D(1997, 7, 1));
  ASSERT_TRUE(snap_after.ok());
  EXPECT_TRUE(snap_after->empty());
}

// Deleting and re-inserting one key on one day leaves one version per
// store, holding the re-insert's values (the last-writer-wins rule of a
// same-day update), so the history does not depend on whether a freeze
// ran since.
TEST_F(PaperExampleTest, SameDayDeleteThenInsertKeepsOneVersion) {
  ASSERT_TRUE(db_->AdvanceClock(D(1997, 6, 1)).ok());
  const Value id(int64_t{2002});
  ASSERT_TRUE(db_->Insert("employees", Tuple{id, Value("Ann"),
                                             Value(int64_t{50000}),
                                             Value("Engineer"), Value("d01")})
                  .ok());
  ASSERT_TRUE(db_->Delete("employees", {id}).ok());
  ASSERT_TRUE(db_->Insert("employees", Tuple{id, Value("Ann"),
                                             Value(int64_t{55000}),
                                             Value("Analyst"), Value("d02")})
                  .ok());
  auto set = db_->archiver().htables("employees");
  ASSERT_TRUE(set.ok());
  auto salary = (*set)->attribute_store("salary");
  ASSERT_TRUE(salary.ok());
  for (const SegmentedStore* store : {(*set)->key_store(), *salary}) {
    std::vector<Tuple> versions;
    ASSERT_TRUE(store->ScanId(2002, [&](const Tuple& row) {
      versions.push_back(row);
      return true;
    }).ok());
    ASSERT_EQ(versions.size(), 1u) << store->name();
    const Tuple& v = versions[0];
    EXPECT_EQ(v.at(v.size() - 2).AsDate(), D(1997, 6, 1)) << store->name();
    EXPECT_TRUE(v.at(v.size() - 1).AsDate().IsForever()) << store->name();
    if (store == *salary) EXPECT_EQ(v.at(1).AsInt(), 55000);
  }
  auto before = db_->PublishHistory("employees");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db_->FreezeAll().ok());
  auto after = db_->PublishHistory("employees");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(xml::Serialize(*before), xml::Serialize(*after));
}

TEST_F(PaperExampleTest, UpdateRejectsKeyChange) {
  ASSERT_TRUE(db_->AdvanceClock(D(1997, 6, 1)).ok());
  Tuple row{Value(int64_t{9999}), Value("Bob"), Value(int64_t{1}),
            Value("x"), Value("d01")};
  Status st = db_->Update("employees", {Value(int64_t{1001})}, row);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(PaperExampleTest, ClockCannotGoBackwards) {
  EXPECT_EQ(db_->AdvanceClock(D(1990, 1, 1)).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace archis::core
