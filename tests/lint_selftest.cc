// Self-test for archis-lint: seeded violation fixtures prove every rule
// can fire, and conforming fixtures prove the clean pass stays clean.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace archis::lint {
namespace {

/// Names of the rules that fire for `contents` at `path`.
std::vector<std::string> Fired(const std::string& path,
                               const std::string& contents) {
  std::vector<std::string> rules;
  for (const Finding& f : LintSource(path, contents)) {
    rules.push_back(f.rule);
  }
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
  return rules;
}

bool FiredRule(const std::string& path, const std::string& contents,
               const std::string& rule) {
  const auto rules = Fired(path, contents);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// ---- forbidden-literal ----------------------------------------------------

TEST(ForbiddenLiteral, FiresOnSentinelString) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "const char* k = \"9999-12-31\";\n",
                        "forbidden-literal"));
}

TEST(ForbiddenLiteral, FiresOnSentinelFromYmd) {
  EXPECT_TRUE(FiredRule("src/storage/seeded.cc",
                        "Date d = Date::FromYmd(9999, 12, 31);\n",
                        "forbidden-literal"));
}

TEST(ForbiddenLiteral, AllowedInsideDateModule) {
  EXPECT_FALSE(FiredRule("src/common/date.cc",
                         "Date Date::Forever() { return FromYmd(9999, 12, "
                         "31); }\n",
                         "forbidden-literal"));
  EXPECT_FALSE(FiredRule("src/temporal/now.cc",
                         "bool IsNow(const std::string& s) { return s == "
                         "\"9999-12-31\"; }\n",
                         "forbidden-literal"));
}

TEST(ForbiddenLiteral, IgnoresComments) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "// the sentinel 9999-12-31 lives in date.cc\n"
                         "/* also 9999-12-31 here */\n",
                         "forbidden-literal"));
}

TEST(ForbiddenLiteral, ReportsLineNumber) {
  const auto findings =
      LintSource("src/archis/seeded.cc",
                 "int x;\nint y;\nconst char* k = \"9999-12-31\";\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].rule, "forbidden-literal");
}

// ---- raw-interval ---------------------------------------------------------

TEST(RawInterval, FiresOnDirectConstruction) {
  EXPECT_TRUE(FiredRule("src/temporal/seeded.cc",
                        "auto iv = TimeInterval(a, b);\n", "raw-interval"));
  EXPECT_TRUE(FiredRule("src/temporal/seeded.cc",
                        "Use(TimeInterval{a, b});\n", "raw-interval"));
}

TEST(RawInterval, AllowsDefaultConstructionAndFactories) {
  EXPECT_FALSE(FiredRule("src/temporal/seeded.cc",
                         "TimeInterval iv;\n"
                         "auto a = MakeInterval(s, e);\n"
                         "auto b = MakeIntervalChecked(s, e);\n"
                         "std::optional<TimeInterval> c;\n",
                         "raw-interval"));
}

TEST(RawInterval, AllowedInsideIntervalModule) {
  EXPECT_FALSE(FiredRule("src/common/interval.h",
                         "return TimeInterval(MinDate(a, b), MaxDate(a, "
                         "b));\n",
                         "raw-interval"));
}

// ---- raw-mutex ------------------------------------------------------------

TEST(RawMutex, FiresOnStdPrimitives) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.h", "std::mutex mu_;\n",
                        "raw-mutex"));
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "std::lock_guard<std::mutex> l(mu_);\n",
                        "raw-mutex"));
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "std::call_once(flag_, [] {});\n", "raw-mutex"));
  EXPECT_TRUE(FiredRule("src/archis/seeded.h",
                        "std::condition_variable_any cv_;\n", "raw-mutex"));
}

TEST(RawMutex, AllowsAnnotatedWrappers) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.h",
                         "Mutex mu_;\nMutexLock lock(mu_);\nCondVar cv_;\n",
                         "raw-mutex"));
}

TEST(RawMutex, AllowedInsideWrapperHeader) {
  EXPECT_FALSE(FiredRule("src/common/mutex.h",
                         "std::mutex mu_;\nstd::condition_variable cv_;\n",
                         "raw-mutex"));
}

// ---- void-mutator ---------------------------------------------------------

TEST(VoidMutator, FiresOnVoidReturningMutatorInScopedHeader) {
  EXPECT_TRUE(FiredRule("src/storage/seeded.h", "void FlushAll();\n",
                        "void-mutator"));
  EXPECT_TRUE(FiredRule("src/compress/seeded.h",
                        "virtual void WriteBlock(int b);\n", "void-mutator"));
}

TEST(VoidMutator, AllowsStatusReturnsAndAccessors) {
  EXPECT_FALSE(FiredRule("src/storage/seeded.h",
                         "Status FlushAll();\n"
                         "void set_cache_capacity(uint64_t b);\n"
                         "void reset();\n",
                         "void-mutator"));
}

TEST(VoidMutator, OnlyAppliesToPersistenceHeaders) {
  // xml/ is outside the storage-facing scope, and .cc files hold
  // definitions whose declarations were already checked.
  EXPECT_FALSE(FiredRule("src/xml/seeded.h", "void AppendChild(N n);\n",
                         "void-mutator"));
  EXPECT_FALSE(FiredRule("src/storage/seeded.cc", "void FlushAll() {}\n",
                         "void-mutator"));
}

// ---- deprecated-api -------------------------------------------------------

TEST(DeprecatedApi, FiresOnFlushLog) {
  EXPECT_TRUE(FiredRule("src/workload/seeded.cc",
                        "ARCHIS_RETURN_NOT_OK(db->FlushLog());\n",
                        "deprecated-api"));
}

TEST(DeprecatedApi, FiresOnLegacyCreateRelation) {
  EXPECT_TRUE(FiredRule(
      "tests/seeded.cc",
      "ASSERT_TRUE(db.CreateRelation(\"emp\", schema, {\"id\"},\n"
      "                              binding, \"emps.xml\").ok());\n",
      "deprecated-api"));
}

TEST(DeprecatedApi, AllowsRelationSpecOverloadAndCommit) {
  EXPECT_FALSE(FiredRule("src/workload/seeded.cc",
                         "RelationSpec spec;\n"
                         "spec.name = \"employees\";\n"
                         "ARCHIS_RETURN_NOT_OK(db->CreateRelation(spec));\n"
                         "ARCHIS_RETURN_NOT_OK(db->Commit());\n",
                         "deprecated-api"));
}

TEST(DeprecatedApi, FiresInsideTheFacadeNowThatTheShimsAreGone) {
  // The [[deprecated]] shims were deleted, and with them the facade's
  // grandfathered exemption: reintroducing one is a lint error.
  EXPECT_TRUE(FiredRule("src/archis/archis.cc",
                        "Status ArchIS::FlushLog() { return Commit(); }\n",
                        "deprecated-api"));
}

TEST(DeprecatedApi, IgnoresLongerIdentifiers) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "void FlushLogBuffers();\n"
                         "int MyFlushLog = 0;\n",
                         "deprecated-api"));
}

// ---- suppressions ---------------------------------------------------------

TEST(Suppression, CommentAboveSuppressesFinding) {
  EXPECT_FALSE(FiredRule(
      "src/storage/seeded.h",
      "// archis-lint: allow(void-mutator) -- provably infallible\n"
      "void FlushAll();\n",
      "void-mutator"));
}

TEST(Suppression, TrailingCommentSuppressesFinding) {
  EXPECT_FALSE(FiredRule(
      "src/archis/seeded.h",
      "std::mutex mu_;  // archis-lint: allow(raw-mutex) -- seeded\n",
      "raw-mutex"));
}

TEST(Suppression, OnlySuppressesNamedRule) {
  EXPECT_TRUE(FiredRule(
      "src/storage/seeded.h",
      "// archis-lint: allow(raw-mutex) -- wrong rule named\n"
      "void FlushAll();\n",
      "void-mutator"));
}

// ---- conforming fixture ---------------------------------------------------

TEST(CleanPass, ConformingSourceHasNoFindings) {
  const std::string conforming =
      "// A conforming storage header.\n"
      "#include \"common/mutex.h\"\n"
      "class Thing {\n"
      " public:\n"
      "  Status Flush();\n"
      "  Result<TimeInterval> Window() const;\n"
      " private:\n"
      "  mutable Mutex mu_{LockRank::kPageManager};\n"
      "  TimeInterval window_ ARCHIS_GUARDED_BY(mu_);\n"
      "};\n"
      "inline TimeInterval Widen(TimeInterval iv) {\n"
      "  return MakeInterval(iv.tstart, Date::Forever());\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/storage/seeded.h", conforming).empty());
}

// ---- raw-logging ----------------------------------------------------------

TEST(RawLogging, FiresOnFprintfStderr) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "void F() { std::fprintf(stderr, \"oops\\n\"); }\n",
                        "raw-logging"));
}

TEST(RawLogging, FiresOnStdCoutAndCerr) {
  EXPECT_TRUE(FiredRule("src/minirel/seeded.cc",
                        "void F() { std::cout << \"x\"; }\n",
                        "raw-logging"));
  EXPECT_TRUE(FiredRule("src/minirel/seeded.cc",
                        "void F() { std::cerr << \"x\"; }\n",
                        "raw-logging"));
}

TEST(RawLogging, IgnoresSnprintfAndOtherLongerTokens) {
  EXPECT_FALSE(FiredRule(
      "src/archis/seeded.cc",
      "void F() { char b[8]; std::snprintf(b, sizeof(b), \"%d\", 1); }\n",
      "raw-logging"));
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "void F() { std::vsnprintf(nullptr, 0, \"\", {}); "
                         "}\n",
                         "raw-logging"));
}

TEST(RawLogging, OnlyAppliesToSrc) {
  EXPECT_FALSE(FiredRule("bench/bench_common.h",
                         "void F() { std::fprintf(stderr, \"bench\\n\"); }\n",
                         "raw-logging"));
  EXPECT_FALSE(FiredRule("tools/archis_stats/archis_stats_main.cc",
                         "void F() { std::printf(\"metrics\\n\"); }\n",
                         "raw-logging"));
}

TEST(RawLogging, AllowedInsideLoggerImplementation) {
  EXPECT_FALSE(FiredRule("src/common/log.cc",
                         "void Emit() { std::fwrite(0, 1, 0, stderr); "
                         "std::fputc('\\n', stderr); }\n",
                         "raw-logging"));
}

TEST(RawLogging, SuppressionComment) {
  EXPECT_FALSE(FiredRule(
      "src/archis/seeded.cc",
      "// archis-lint: allow(raw-logging) -- early-boot, logger not up\n"
      "void F() { std::fprintf(stderr, \"boot\\n\"); }\n",
      "raw-logging"));
}

// ---- plan-ownership -------------------------------------------------------

TEST(PlanOwnership, FiresOnBraceConstruction) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "auto p = PhysicalPlan{};\n", "plan-ownership"));
  // The message names the planner's one entry point.
  const std::vector<Finding> findings =
      LintSource("src/archis/seeded.cc", "auto p = PhysicalPlan{};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("from PlanQuery()"), std::string::npos);
  EXPECT_EQ(findings[0].message.find("DefaultPhysicalPlan"),
            std::string::npos);
}

TEST(PlanOwnership, FiresOnLocalDeclaration) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc", "PhysicalPlan p;\n",
                        "plan-ownership"));
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "PhysicalPlan p = Cook();\n", "plan-ownership"));
}

TEST(PlanOwnership, AllowsReferencesAndFunctionDeclarations) {
  EXPECT_FALSE(FiredRule(
      "src/archis/seeded.cc",
      "void Run(const PhysicalPlan& p);\n"
      "const PhysicalPlan* chosen = nullptr;\n"
      "Result<PhysicalPlan> PlanQuery(const SqlXmlPlan& plan);\n"
      "std::shared_ptr<const PhysicalPlan> cached;\n",
      "plan-ownership"));
}

TEST(PlanOwnership, AllowsStructDefinitionAndPlanner) {
  EXPECT_FALSE(FiredRule("src/archis/sqlxml.h",
                         "struct PhysicalPlan {\n  double est = 0;\n};\n",
                         "plan-ownership"));
  EXPECT_FALSE(FiredRule("src/archis/planner.cc",
                         "PhysicalPlan physical;\nreturn physical;\n",
                         "plan-ownership"));
}

TEST(PlanOwnership, OnlyAppliesToSrc) {
  EXPECT_FALSE(FiredRule("tests/seeded.cc", "PhysicalPlan p;\n",
                         "plan-ownership"));
}

// ---- lock-rank ------------------------------------------------------------

TEST(LockRank, FiresOnUnrankedDeclaration) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.h", "  mutable Mutex mu_;\n",
                        "lock-rank"));
  EXPECT_TRUE(FiredRule("src/archis/seeded.h", "  archis::Mutex mu;\n",
                        "lock-rank"));
}

TEST(LockRank, FiresOnEmptyBraceInit) {
  EXPECT_TRUE(
      FiredRule("src/archis/seeded.h", "  Mutex mu_{};\n", "lock-rank"));
}

TEST(LockRank, AllowsRankedDeclaration) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.h",
                         "  mutable Mutex mu_{LockRank::kWal};\n",
                         "lock-rank"));
}

TEST(LockRank, AllowsUsesAndMutexLock) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "void F(Mutex& mu) {\n"
                         "  MutexLock lock(mu);\n"
                         "  Mutex* p = &mu;\n"
                         "}\n",
                         "lock-rank"));
}

TEST(LockRank, OnlyAppliesToSrc) {
  EXPECT_FALSE(
      FiredRule("tests/seeded.cc", "Mutex scratch;\n", "lock-rank"));
  EXPECT_FALSE(
      FiredRule("tools/seeded.cc", "Mutex scratch;\n", "lock-rank"));
}

TEST(LockRank, MutexImplementationExempt) {
  EXPECT_FALSE(FiredRule("src/common/mutex.h", "  Mutex fallback_;\n",
                         "lock-rank"));
}

TEST(LockRank, SuppressionComment) {
  EXPECT_FALSE(FiredRule(
      "src/archis/seeded.h",
      "  // archis-lint: allow(lock-rank) -- scratch lock in a test shim\n"
      "  Mutex mu_;\n",
      "lock-rank"));
}

// ---- trace-event-names ----------------------------------------------------

TEST(TraceEventNames, FiresOnNonEnumeratorFirstArgument) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc", "fr::Record(3, id);\n",
                        "trace-event-names"));
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "fr::Record(event_type, id);\n",
                        "trace-event-names"));
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "fr::Record(static_cast<fr::EventType>(n), id);\n",
                        "trace-event-names"));
}

TEST(TraceEventNames, AllowsRegisteredEnumerators) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "fr::Record(fr::EventType::kTxnBegin, id);\n",
                         "trace-event-names"));
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "fr::Record(\n    EventType::kWalFsync, a, b);\n",
                         "trace-event-names"));
  EXPECT_FALSE(FiredRule(
      "src/archis/seeded.cc",
      "archis::fr::Record(archis::fr::EventType::kCrash, 0, 0, 0, r);\n",
      "trace-event-names"));
}

TEST(TraceEventNames, IgnoresLongerIdentifiersAndComments) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc", "myfr::Record(3, id);\n",
                         "trace-event-names"));
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "// fr::Record(3, id) would be rejected\n",
                         "trace-event-names"));
}

TEST(TraceEventNames, FiresOnNonSnakeCaseDisplayName) {
  EXPECT_TRUE(FiredRule("src/common/flight_recorder.h",
                        "#define LIST(X) X(kFoo, \"FooBar\")\n",
                        "trace-event-names"));
  EXPECT_TRUE(FiredRule("src/common/flight_recorder.h",
                        "#define LIST(X) X(kFoo, \"7foo\")\n",
                        "trace-event-names"));
}

TEST(TraceEventNames, AllowsSnakeCaseNamesAndScopesToRegistryHeader) {
  EXPECT_FALSE(FiredRule("src/common/flight_recorder.h",
                         "#define LIST(X) X(kFoo, \"foo_bar2\")\n",
                         "trace-event-names"));
  // The display-name arm only applies to the registry header itself.
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc", "X(kFoo, \"FooBar\")\n",
                         "trace-event-names"));
}

TEST(TraceEventNames, SuppressionComment) {
  EXPECT_FALSE(FiredRule(
      "src/archis/seeded.cc",
      "// archis-lint: allow(trace-event-names) -- replaying a saved type\n"
      "fr::Record(saved_type, id);\n",
      "trace-event-names"));
}

// ---- raw-socket ------------------------------------------------------------

TEST(RawSocket, FiresOnSocketCallsOutsideServer) {
  EXPECT_TRUE(FiredRule("src/archis/seeded.cc",
                        "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n",
                        "raw-socket"));
  EXPECT_TRUE(FiredRule("tools/seeded/seeded_main.cc",
                        "int c = accept(lfd, nullptr, nullptr);\n",
                        "raw-socket"));
  EXPECT_TRUE(FiredRule("src/common/seeded.cc",
                        "setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &o, n);\n",
                        "raw-socket"));
}

TEST(RawSocket, AllowedInsideServerSubsystem) {
  EXPECT_FALSE(FiredRule("src/server/server.cc",
                         "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n",
                         "raw-socket"));
  EXPECT_FALSE(FiredRule("src/server/client.cc",
                         "setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, n);\n",
                         "raw-socket"));
}

TEST(RawSocket, IgnoresIdentifiersAndNonCalls) {
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "int socket_count = 0;\nstd::string socket_path;\n",
                         "raw-socket"));
  EXPECT_FALSE(FiredRule("src/archis/seeded.cc",
                         "// the socket (2) man page\nint accepted = 1;\n",
                         "raw-socket"));
}

// ---- comment stripping ----------------------------------------------------

TEST(StripCommentsTest, PreservesLineStructureAndStrings) {
  const std::string src = "int a; // trailing\n/* b\nlines */ int c = 1;\n"
                          "const char* s = \"// not a comment\";\n";
  const std::string stripped = StripComments(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("trailing"), std::string::npos);
  EXPECT_NE(stripped.find("int c = 1;"), std::string::npos);
  EXPECT_NE(stripped.find("\"// not a comment\""), std::string::npos);
}

}  // namespace
}  // namespace archis::lint
