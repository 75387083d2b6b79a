// Quickstart: build a transaction-time temporal database, replay the
// paper's running example (Bob from Table 1), and query its history.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "archis/archis.h"
#include "xml/serializer.h"

using archis::Date;
using archis::Status;
using archis::core::ArchIS;
using archis::core::ArchISOptions;
using archis::core::QueryPath;
using archis::minirel::DataType;
using archis::minirel::Schema;
using archis::minirel::Tuple;
using archis::minirel::Value;

namespace {

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // 1. An ArchIS instance: current database + H-tables, with segment
  //    clustering at the paper's U_min = 0.4.
  ArchISOptions options;
  options.segment.umin = 0.4;
  ArchIS db(options, Date::FromYmd(1995, 1, 1));

  // 2. Register a relation. The spec names the XML view: queries see the
  //    history as doc("employees.xml")/employees/employee/... (root and
  //    entity tags default from the relation name).
  archis::core::RelationSpec spec;
  spec.name = "employees";
  spec.schema = Schema({{"id", DataType::kInt64},
                        {"name", DataType::kString},
                        {"salary", DataType::kInt64},
                        {"title", DataType::kString},
                        {"deptno", DataType::kString}});
  spec.key_columns = {"id"};
  spec.doc_name = "employees.xml";
  Check(db.CreateRelation(spec), "CreateRelation");

  // 3. Ordinary DML on the current table; every change is transparently
  //    archived into the H-tables at the transaction clock.
  auto bob = [](int64_t salary, const char* title, const char* dept) {
    return Tuple{Value(int64_t{1001}), Value("Bob"), Value(salary),
                 Value(title), Value(dept)};
  };
  Check(db.Insert("employees", bob(60000, "Engineer", "d01")), "insert");
  Check(db.AdvanceClock(Date::FromYmd(1995, 6, 1)), "clock");
  Check(db.Update("employees", {Value(int64_t{1001})},
                  bob(70000, "Engineer", "d01")),
        "raise");
  Check(db.AdvanceClock(Date::FromYmd(1995, 10, 1)), "clock");
  Check(db.Update("employees", {Value(int64_t{1001})},
                  bob(70000, "Sr Engineer", "d02")),
        "promotion");
  Check(db.AdvanceClock(Date::FromYmd(1996, 2, 1)), "clock");
  Check(db.Update("employees", {Value(int64_t{1001})},
                  bob(70000, "TechLeader", "d02")),
        "promotion 2");

  // 4. The temporally-grouped H-document view (paper Figure 3).
  auto doc = db.PublishHistory("employees");
  Check(doc.status(), "PublishHistory");
  archis::xml::SerializeOptions pretty;
  pretty.pretty = true;
  std::printf("H-document view of the history:\n%s\n",
              archis::xml::Serialize(*doc, pretty).c_str());

  // 5. Temporal XQuery. This one translates to SQL/XML on the H-tables.
  const std::string query1 =
      "element title_history{ for $t in doc(\"employees.xml\")/employees/"
      "employee[name=\"Bob\"]/title return $t }";
  auto result = db.Query(query1);
  Check(result.status(), "Query");
  std::printf("QUERY 1 executed via %s.\n",
              result->path == QueryPath::kTranslated
                  ? "translation to SQL/XML"
                  : "native XQuery fallback");
  auto plan = db.Translate(query1);
  Check(plan.status(), "Translate");
  std::printf("Generated SQL/XML:\n%s\n\n", plan->ToSql().c_str());
  std::printf("Result:\n%s\n",
              archis::xml::Serialize(result->xml, pretty).c_str());

  // 6. Time travel: the salary Bob had on any past day.
  auto snap = db.Snapshot("employees", Date::FromYmd(1995, 7, 15));
  Check(snap.status(), "Snapshot");
  std::printf("Snapshot on 1995-07-15: %s\n",
              (*snap)[0].ToString().c_str());
  return 0;
}
