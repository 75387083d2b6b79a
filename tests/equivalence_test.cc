// Cross-path equivalence: the translated SQL/XML path and the native
// XQuery path must produce byte-identical answers on generated workload
// data, across a parameterized family of snapshot, slicing, projection,
// current-tense and aggregate queries, and for the six Table-3 texts at
// paper scale. This is the end-to-end correctness argument for
// Algorithm 1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "workload/employee_workload.h"
#include "xml/serializer.h"

namespace archis::core {
namespace {

using workload::EmployeeWorkload;
using workload::WorkloadConfig;

/// Physical-plan pin for the whole suite, from ARCHIS_FORCE_PLAN:
/// "fixed" runs every translated query on the pre-planner executor shape,
/// "cost" makes planner failures hard errors. scripts/check.sh runs the
/// suite under both values, so a planner bug cannot hide behind the
/// kAuto fallback.
PlanForce ForcedPlan() {
  const char* v = std::getenv("ARCHIS_FORCE_PLAN");
  if (v == nullptr) return PlanForce::kAuto;
  if (std::strcmp(v, "fixed") == 0) return PlanForce::kFixed;
  if (std::strcmp(v, "cost") == 0) return PlanForce::kCostBased;
  ADD_FAILURE() << "unknown ARCHIS_FORCE_PLAN value: " << v;
  return PlanForce::kAuto;
}

/// Runs `query` on both paths and returns the translated answer,
/// serialized. The translated side is pinned with QueryForce::kTranslated,
/// so a translator coverage regression fails loudly instead of silently
/// comparing native against native; the answers must match byte for byte
/// (tend attributes and number formatting included).
std::string RunBoth(ArchIS* db, const std::string& query) {
  auto translated =
      db->Query(query, QueryOptions{.force_path = QueryForce::kTranslated,
                                    .force_plan = ForcedPlan()});
  EXPECT_TRUE(translated.ok()) << translated.status().ToString() << "\n"
                               << query;
  if (!translated.ok()) return "";
  EXPECT_EQ(translated->path, QueryPath::kTranslated);
  auto native =
      db->Query(query, QueryOptions{.force_path = QueryForce::kNative});
  EXPECT_TRUE(native.ok()) << native.status().ToString();
  if (!native.ok()) return "";
  EXPECT_EQ(native->path, QueryPath::kNativeFallback);
  const std::string bytes = xml::Serialize(translated->xml);
  EXPECT_EQ(bytes, xml::Serialize(native->xml)) << query;
  return bytes;
}

class TranslationEquivalence : public ::testing::TestWithParam<int> {
 public:
  static ArchIS* Db() {
    static std::unique_ptr<ArchIS> db = [] {
      ArchISOptions opts;
      opts.segment.umin = 0.4;
      auto d = std::make_unique<ArchIS>(opts, Date::FromYmd(1985, 1, 1));
      WorkloadConfig cfg;
      cfg.initial_employees = 50;
      cfg.years = 8;
      EmployeeWorkload wl(cfg);
      auto st = wl.Generate(d.get());
      EXPECT_TRUE(st.ok());
      probe_id_ = wl.probe_id();
      return d;
    }();
    return db.get();
  }

  static std::string RunBoth(const std::string& query) {
    return core::RunBoth(Db(), query);
  }

  static int64_t probe_id_;
};

int64_t TranslationEquivalence::probe_id_ = 0;

/// The text of Table 3's Q6 shape: the largest raise between two salary
/// versions of one employee at most `window` days apart, the earlier one
/// starting on or after `after`; `delta` is the returned expression.
std::string WindowedRaiseQuery(const std::string& after, int window,
                               const char* delta =
                                   "number($s2) - number($s1)") {
  return "max(for $e in doc(\"employees.xml\")/employees/employee "
         "for $s1 in $e/salary for $s2 in $e/salary "
         "where tstart($s1) >= xs:date(\"" + after + "\") and "
         "tstart($s2) > tstart($s1) and "
         "tstart($s2) <= tstart($s1) + " + std::to_string(window) +
         " return " + delta + ")";
}

TEST_P(TranslationEquivalence, SnapshotQueriesAgree) {
  Date t = Date::FromYmd(1985 + GetParam(), 7, 1);
  char q[512];
  std::snprintf(q, sizeof(q),
                "for $s in doc(\"employees.xml\")/employees/employee/salary"
                "[tstart(.) <= xs:date(\"%s\") and "
                "tend(.) >= xs:date(\"%s\")] return $s",
                t.ToString().c_str(), t.ToString().c_str());
  const std::string bytes = RunBoth(q);
  if (GetParam() >= 1) {
    EXPECT_NE(bytes.find("<salary"), std::string::npos);
  }
}

TEST_P(TranslationEquivalence, SlicingQueriesAgree) {
  Date a = Date::FromYmd(1985 + GetParam(), 3, 1);
  Date b = a.AddDays(200);
  char q[512];
  std::snprintf(q, sizeof(q),
                "for $e in doc(\"employees.xml\")/employees/employee"
                "[toverlaps(., telement(xs:date(\"%s\"), xs:date(\"%s\")))]"
                " return $e/name",
                a.ToString().c_str(), b.ToString().c_str());
  RunBoth(q);
}

TEST_P(TranslationEquivalence, ValuePredicateProjectionAgrees) {
  // Different titles per parameter exercise different selectivities.
  static const char* kTitles[] = {"Engineer", "Sr Engineer", "Manager",
                                  "Analyst", "Architect", "TechLeader",
                                  "Staff Engineer", "Sr Analyst"};
  char q[512];
  std::snprintf(q, sizeof(q),
                "for $t in doc(\"employees.xml\")/employees/"
                "employee[title=\"%s\"]/salary return $t",
                kTitles[GetParam() % 8]);
  RunBoth(q);
}

TEST_P(TranslationEquivalence, SingleObjectHistoryAgrees) {
  char q[256];
  std::snprintf(q, sizeof(q),
                "for $s in doc(\"employees.xml\")/employees/"
                "employee[id=%lld]/salary return $s",
                static_cast<long long>(probe_id_ + GetParam()));
  RunBoth(q);
}

// -- The Table-3 aggregate shapes (Q2, Q4, Q5, Q6) across the years -------

TEST_P(TranslationEquivalence, SnapshotAverageAgrees) {
  const std::string t = Date::FromYmd(1985 + GetParam(), 7, 1).ToString();
  RunBoth("avg(doc(\"employees.xml\")/employees/employee/salary"
          "[tstart(.) <= xs:date(\"" + t + "\") and "
          "tend(.) >= xs:date(\"" + t + "\")])");
}

TEST_P(TranslationEquivalence, VersionCountAgrees) {
  const std::string t = Date::FromYmd(1985 + GetParam(), 1, 1).ToString();
  const std::string bytes =
      RunBoth("count(doc(\"employees.xml\")/employees/employee/salary"
              "[tstart(.) >= xs:date(\"" + t + "\")])");
  EXPECT_NE(bytes, "<results>0</results>");
}

TEST_P(TranslationEquivalence, SlicedExistsCountAgrees) {
  const Date a = Date::FromYmd(1985 + GetParam(), 3, 1);
  const std::string threshold = std::to_string(45000 + 2500 * GetParam());
  RunBoth("count(for $e in doc(\"employees.xml\")/employees/employee "
          "where exists($e/salary[. > " + threshold + " and "
          "tstart(.) <= xs:date(\"" + a.AddDays(365).ToString() + "\") and "
          "tend(.) >= xs:date(\"" + a.ToString() + "\")]) return $e)");
}

TEST_P(TranslationEquivalence, WindowedRaiseJoinAgrees) {
  const std::string after = Date::FromYmd(1985 + GetParam(), 1, 1).ToString();
  RunBoth(WindowedRaiseQuery(after, 730));
}

INSTANTIATE_TEST_SUITE_P(YearSweep, TranslationEquivalence,
                         ::testing::Range(0, 8));

// -- Aggregate edge cases ----------------------------------------------------

TEST(TranslationEquivalenceMisc, EmptyAggregatesAgree) {
  ArchIS* db = TranslationEquivalence::Db();
  // avg and max of nothing are the empty sequence; count of nothing is 0.
  EXPECT_EQ(RunBoth(db, "avg(doc(\"employees.xml\")/employees/employee/"
                        "salary[. > 99999999])"),
            "<results/>");
  EXPECT_EQ(RunBoth(db, WindowedRaiseQuery("2100-01-01", 730)), "<results/>");
  EXPECT_EQ(RunBoth(db, "count(doc(\"employees.xml\")/employees/employee/"
                        "salary[. > 99999999])"),
            "<results>0</results>");
  EXPECT_EQ(RunBoth(db, "sum(doc(\"employees.xml\")/employees/employee/"
                        "salary[. > 99999999])"),
            "<results>0</results>");
}

TEST(TranslationEquivalenceMisc, MaxOfNegativeDeltasStaysNegative) {
  ArchIS* db = TranslationEquivalence::Db();
  // Raises only ever go up, so every earlier-minus-later delta is < 0.
  const std::string bytes = RunBoth(
      db, WindowedRaiseQuery("1985-01-01", 730, "number($s1) - number($s2)"));
  EXPECT_EQ(bytes.rfind("<results>-", 0), 0u) << bytes;
}

TEST(TranslationEquivalenceMisc, ForBindingsMultiplyCountFacts) {
  ArchIS* db = TranslationEquivalence::Db();
  // One fact per (e, s) pair: the count of all salary versions ...
  const std::string pairs =
      RunBoth(db, "count(for $e in doc(\"employees.xml\")/employees/employee "
                  "for $s in $e/salary return $e)");
  EXPECT_EQ(pairs, RunBoth(db, "count(doc(\"employees.xml\")/employees/"
                               "employee/salary)"));
  // ... while an exists() semi-join counts each employee once.
  const std::string employees =
      RunBoth(db, "count(for $e in doc(\"employees.xml\")/employees/employee "
                  "where exists($e/salary) return $e)");
  EXPECT_EQ(employees,
            RunBoth(db, "count(doc(\"employees.xml\")/employees/employee)"));
  EXPECT_NE(pairs, employees);
}

TEST(TranslationEquivalenceMisc, SingleObjectAggregatesAgree) {
  ArchIS* db = TranslationEquivalence::Db();
  const std::string path =
      "(doc(\"employees.xml\")/employees/employee[id=" +
      std::to_string(TranslationEquivalence::probe_id_) + "]/salary)";
  for (const char* fn : {"sum", "min", "max", "avg", "count"}) {
    EXPECT_NE(RunBoth(db, fn + path), "<results/>") << fn;
  }
}

TEST(TranslationEquivalenceMisc, CurrentTenseQueryAgrees) {
  ArchIS* db = TranslationEquivalence::Db();
  const std::string q =
      "for $e in doc(\"employees.xml\")/employees/employee "
      "let $m := $e/title[tend(.)=current-date()] "
      "where not empty($m) return $e/id";
  auto result =
      db->Query(q, QueryOptions{.force_path = QueryForce::kTranslated,
                                .force_plan = ForcedPlan()});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->path, QueryPath::kTranslated);
  // kNative skips the translator entirely and evaluates over the
  // published H-documents.
  auto native = db->Query(q, QueryOptions{.force_path = QueryForce::kNative});
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(native->path, QueryPath::kNativeFallback);
  // Current employees must match the current table row count.
  auto table = db->current_db().catalog().GetTable("employees");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(result->xml->ChildElements().size(), (*table)->RowCount());
  EXPECT_EQ(native->xml->ChildElements().size(), (*table)->RowCount());
}

TEST(TranslationEquivalenceMisc, TavgAgreesWithNative) {
  ArchIS* db = TranslationEquivalence::Db();
  const std::string q =
      "let $s := doc(\"employees.xml\")/employees/employee/salary "
      "return tavg($s)";
  auto result = db->Query(q, QueryOptions{.force_plan = ForcedPlan()});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->path, QueryPath::kTranslated);
  auto native = db->QueryNative(q);
  ASSERT_TRUE(native.ok());
  auto steps = result->xml->ChildrenNamed("tavg");
  ASSERT_EQ(steps.size(), native->size());
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i]->StringValue(),
              (*native)[i].node()->StringValue());
    EXPECT_EQ(*steps[i]->Attr("tstart"),
              *(*native)[i].node()->Attr("tstart"));
  }
}

// -- Paper scale: Table 3 as a client sends it ------------------------------

/// The paper-scale history the Table-3 benchmarks run on: 120 employees
/// over 17 years, segmented at U_min 0.4, uncompressed.
class PaperScale : public ::testing::Test {
 public:
  static ArchIS* Db() {
    static std::unique_ptr<ArchIS> db = [] {
      ArchISOptions opts;
      opts.segment.umin = 0.4;
      auto d = std::make_unique<ArchIS>(opts, Date::FromYmd(1985, 1, 1));
      WorkloadConfig cfg;
      cfg.initial_employees = 120;
      cfg.years = 17;
      EmployeeWorkload wl(cfg);
      EXPECT_TRUE(wl.Generate(d.get()).ok());
      probe_id_ = wl.probe_id();
      return d;
    }();
    return db.get();
  }
  static int64_t probe_id_;
};

int64_t PaperScale::probe_id_ = 0;

std::string SalaryWindowQuery(Date from, Date to) {
  return "for $s in doc(\"employees.xml\")/employees/employee/salary"
         "[tstart(.) <= xs:date(\"" + to.ToString() + "\") and "
         "tend(.) >= xs:date(\"" + from.ToString() + "\")] return $s";
}

TEST_F(PaperScale, Table3TextsTranslateAndMatchNative) {
  ArchIS* db = Db();
  const std::string id = std::to_string(probe_id_);
  const std::string texts[6] = {
      "for $s in doc(\"employees.xml\")/employees/employee[id=" + id +
          "]/salary[tstart(.) <= xs:date(\"1993-05-16\") and "
          "tend(.) >= xs:date(\"1993-05-16\")] return $s",
      "avg(doc(\"employees.xml\")/employees/employee/salary[tstart(.) <= "
      "xs:date(\"1993-05-16\") and tend(.) >= xs:date(\"1993-05-16\")])",
      "for $s in doc(\"employees.xml\")/employees/employee[id=" + id +
          "]/salary return $s",
      "count(doc(\"employees.xml\")/employees/employee/salary)",
      "count(for $e in doc(\"employees.xml\")/employees/employee where "
      "exists($e/salary[. > 60000 and tstart(.) <= xs:date(\"1994-05-16\") "
      "and tend(.) >= xs:date(\"1993-05-16\")]) return $e)",
      WindowedRaiseQuery("1998-04-01", 730),
  };
  for (const std::string& text : texts) {
    // The automatic path must pick translation for every Table-3 text.
    auto result = db->Query(text, QueryOptions{.force_plan = ForcedPlan()});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->path, QueryPath::kTranslated) << text;
    EXPECT_EQ(xml::Serialize(result->xml), RunBoth(db, text));
  }
}

TEST_F(PaperScale, SnapshotAndSliceTextsMatchNative) {
  // Versions open when a segment froze and closed later: their frozen
  // copies still say tend = forever, and a pruned scan must not emit them.
  ArchIS* db = Db();
  for (int y = 0; y < 17; ++y) {
    const Date at = Date::FromYmd(1985 + y, 5, 16);
    RunBoth(db, SalaryWindowQuery(at, at));
    RunBoth(db, SalaryWindowQuery(at, Date::FromYmd(1986 + y, 5, 16)));
  }
}

}  // namespace
}  // namespace archis::core
