// Unit tests for common/: Status/Result, Date, TimeInterval, str_util,
// and the runtime lock-rank assertion.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/date.h"
#include "common/interval.h"
#include "common/mutex.h"
#include "common/parse.h"
#include "common/status.h"
#include "common/str_util.h"

#if defined(__SANITIZE_THREAD__)
#define ARCHIS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ARCHIS_TSAN 1
#endif
#endif

namespace archis {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing table");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> in) {
  ARCHIS_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(Status::NotFound("x")).status().code(),
            StatusCode::kNotFound);
}

TEST(DateTest, RoundTripsYmd) {
  Date d = Date::FromYmd(1995, 6, 1);
  EXPECT_EQ(d.year(), 1995);
  EXPECT_EQ(d.month(), 6);
  EXPECT_EQ(d.day(), 1);
  EXPECT_EQ(d.ToString(), "1995-06-01");
}

TEST(DateTest, ParsesIsoAndUsFormats) {
  auto iso = Date::Parse("1995-06-01");
  ASSERT_TRUE(iso.ok());
  auto us = Date::Parse("06/01/1995");  // the paper's H-table sample format
  ASSERT_TRUE(us.ok());
  EXPECT_EQ(*iso, *us);
}

TEST(DateTest, RejectsGarbage) {
  EXPECT_FALSE(Date::Parse("not a date").ok());
  EXPECT_FALSE(Date::Parse("1995-13-01").ok());
  EXPECT_FALSE(Date::Parse("1995-01-42").ok());
}

TEST(DateTest, RejectsDaysPastTrueMonthLength) {
  // These used to normalise silently (2005-02-30 -> 2005-03-02); the
  // calendar validator now rejects them as ParseError.
  EXPECT_EQ(Date::Parse("2005-02-30").status().code(),
            StatusCode::kParseError);
  EXPECT_FALSE(Date::Parse("2005-04-31").ok());
  EXPECT_FALSE(Date::Parse("2005-02-29").ok());  // 2005 is not a leap year
  EXPECT_TRUE(Date::Parse("2004-02-29").ok());   // 2004 is
  EXPECT_FALSE(Date::Parse("1900-02-29").ok());  // century, not leap
  EXPECT_TRUE(Date::Parse("2000-02-29").ok());   // 400-year rule
  EXPECT_FALSE(Date::Parse("02/30/2005").ok());  // US format validated too
}

TEST(DateTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Date::Parse("2005-01-01x").ok());
  EXPECT_FALSE(Date::Parse("2005-01-01 ").ok());
  EXPECT_FALSE(Date::Parse("06/01/1995junk").ok());
  EXPECT_TRUE(Date::Parse("2005-01-01").ok());
}

TEST(DateTest, DaysInMonthTable) {
  EXPECT_EQ(Date::DaysInMonth(1995, 1), 31);
  EXPECT_EQ(Date::DaysInMonth(1995, 2), 28);
  EXPECT_EQ(Date::DaysInMonth(1996, 2), 29);
  EXPECT_EQ(Date::DaysInMonth(1995, 4), 30);
  EXPECT_EQ(Date::DaysInMonth(1995, 0), 0);
  EXPECT_EQ(Date::DaysInMonth(1995, 13), 0);
}

class DateCalendarProperty : public ::testing::TestWithParam<int> {};

TEST_P(DateCalendarProperty, EveryValidDayRoundTripsAndOneDayPastFails) {
  const int year = GetParam();
  for (int month = 1; month <= 12; ++month) {
    const int len = Date::DaysInMonth(year, month);
    for (int day = 1; day <= len; ++day) {
      Date d = Date::FromYmd(year, month, day);
      auto parsed = Date::Parse(d.ToString());
      ASSERT_TRUE(parsed.ok()) << d.ToString();
      EXPECT_EQ(*parsed, d);
      EXPECT_EQ(parsed->year(), year);
      EXPECT_EQ(parsed->month(), month);
      EXPECT_EQ(parsed->day(), day);
    }
    // The first nonexistent day of each month must be rejected.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, len + 1);
    EXPECT_FALSE(Date::Parse(buf).ok()) << buf;
  }
}

INSTANTIATE_TEST_SUITE_P(LeapAndCommonYears, DateCalendarProperty,
                         ::testing::Values(1900, 1995, 1996, 2000, 2004,
                                           2005));

TEST(DateTest, ForeverIsEndOfTime) {
  EXPECT_EQ(Date::Forever().ToString(), "9999-12-31");
  EXPECT_TRUE(Date::Forever().IsForever());
  EXPECT_FALSE(Date::FromYmd(2006, 1, 1).IsForever());
  // The sentinel orders after every real date — the property Section 4.3
  // relies on for index compatibility.
  EXPECT_LT(Date::FromYmd(9999, 12, 30), Date::Forever());
}

TEST(DateTest, ArithmeticCrossesMonthAndLeapBoundaries) {
  EXPECT_EQ(Date::FromYmd(1995, 1, 31).AddDays(1), Date::FromYmd(1995, 2, 1));
  EXPECT_EQ(Date::FromYmd(1996, 2, 28).AddDays(1),
            Date::FromYmd(1996, 2, 29));  // leap year
  EXPECT_EQ(Date::FromYmd(1995, 2, 28).AddDays(1), Date::FromYmd(1995, 3, 1));
  EXPECT_EQ(Date::FromYmd(1995, 12, 31).AddDays(1),
            Date::FromYmd(1996, 1, 1));
  EXPECT_EQ(Date::FromYmd(1996, 1, 1) - Date::FromYmd(1995, 1, 1), 365);
}

class DateRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DateRoundTrip, ParseOfToStringIsIdentity) {
  Date d = Date::FromYmd(1985, 1, 1).AddDays(GetParam() * 97);
  auto parsed = Date::Parse(d.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, d);
}

INSTANTIATE_TEST_SUITE_P(SweepTwentyYears, DateRoundTrip,
                         ::testing::Range(0, 80));

TEST(IntervalTest, ValidityAndDuration) {
  TimeInterval iv(Date::FromYmd(1995, 1, 1), Date::FromYmd(1995, 1, 10));
  EXPECT_TRUE(iv.valid());
  EXPECT_EQ(iv.duration_days(), 10);
  EXPECT_FALSE(TimeInterval(iv.tend, iv.tstart).valid());
}

TEST(IntervalTest, AllenPredicates) {
  TimeInterval a(Date::FromYmd(1995, 1, 1), Date::FromYmd(1995, 5, 31));
  TimeInterval b(Date::FromYmd(1995, 6, 1), Date::FromYmd(1995, 9, 30));
  TimeInterval c(Date::FromYmd(1995, 3, 1), Date::FromYmd(1995, 7, 1));
  EXPECT_TRUE(a.Meets(b));
  EXPECT_FALSE(b.Meets(a));
  EXPECT_TRUE(a.Precedes(b));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_TRUE(c.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(b));  // adjacent but disjoint (inclusive bounds)
  EXPECT_TRUE(TimeInterval(a.tstart, b.tend).Contains(c));
  EXPECT_TRUE(a.Equals(a));
}

TEST(IntervalTest, IntersectAndSpan) {
  TimeInterval a(Date::FromYmd(1995, 1, 1), Date::FromYmd(1995, 5, 31));
  TimeInterval c(Date::FromYmd(1995, 3, 1), Date::FromYmd(1995, 7, 1));
  auto meet = a.Intersect(c);
  ASSERT_TRUE(meet.has_value());
  EXPECT_EQ(meet->tstart, c.tstart);
  EXPECT_EQ(meet->tend, a.tend);
  EXPECT_FALSE(a.Intersect(TimeInterval(Date::FromYmd(1996, 1, 1),
                                        Date::FromYmd(1996, 2, 1)))
                   .has_value());
  TimeInterval span = a.Span(c);
  EXPECT_EQ(span.tstart, a.tstart);
  EXPECT_EQ(span.tend, c.tend);
}

TEST(IntervalTest, CurrentIntervalOverlapsEverythingAfterStart) {
  TimeInterval live(Date::FromYmd(1995, 1, 1), Date::Forever());
  EXPECT_TRUE(live.is_current());
  EXPECT_TRUE(live.Overlaps(
      TimeInterval(Date::FromYmd(2030, 1, 1), Date::FromYmd(2031, 1, 1))));
  EXPECT_FALSE(live.Overlaps(
      TimeInterval(Date::FromYmd(1990, 1, 1), Date::FromYmd(1994, 1, 1))));
}

TEST(StrUtilTest, SplitJoinTrim) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
}

TEST(StrUtilTest, PrefixSuffixCase) {
  EXPECT_TRUE(StartsWith("employee_salary", "employee"));
  EXPECT_FALSE(StartsWith("emp", "employee"));
  EXPECT_TRUE(EndsWith("employees.xml", ".xml"));
  EXPECT_EQ(ToLower("XMLAgg"), "xmlagg");
}

TEST(StrUtilTest, XmlEscapeRoundTrip) {
  std::string nasty = "a<b&c>\"d'e";
  EXPECT_EQ(XmlEscape(nasty), "a&lt;b&amp;c&gt;&quot;d&apos;e");
  EXPECT_EQ(XmlUnescape(XmlEscape(nasty)), nasty);
  EXPECT_EQ(XmlUnescape("&bogus;"), "&bogus;");  // unknown entity passes
}

// -- ParseInt64 / ParseDouble (common/parse.h) ------------------------------
//
// These helpers exist because two inline strtoll/strtod call sites
// accepted "" as 0 (end != text trivially passes when both are the start)
// and never checked errno, so ERANGE silently clamped to LLONG_MAX.

TEST(ParseTest, ParsesPlainIntegers) {
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("+8"), 8);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt64("-9223372036854775808"), INT64_MIN);
}

TEST(ParseTest, RejectsEmptyAndWhitespaceInt) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64(" ").ok());
  EXPECT_FALSE(ParseInt64(" 5").ok());
  EXPECT_FALSE(ParseInt64("5 ").ok());
  EXPECT_FALSE(ParseInt64("\t5").ok());
}

TEST(ParseTest, RejectsTrailingGarbageInt) {
  EXPECT_FALSE(ParseInt64("5xyz").ok());
  EXPECT_FALSE(ParseInt64("12.5").ok());
  EXPECT_FALSE(ParseInt64("0x10").ok());
  EXPECT_FALSE(ParseInt64("--3").ok());
  EXPECT_FALSE(ParseInt64("xyz").ok());
}

TEST(ParseTest, RejectsOutOfRangeIntInsteadOfClamping) {
  // The motivating bug: the old inline strtoll returned LLONG_MAX here.
  auto r = ParseInt64("99999999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(ParseInt64("-99999999999999999999999").ok());
}

TEST(ParseTest, ParsesPlainDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2.25e2"), -225.0);
  EXPECT_DOUBLE_EQ(*ParseDouble(".5"), 0.5);
}

TEST(ParseTest, RejectsEmptyWhitespaceAndGarbageDouble) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble(" 1.5").ok());
  EXPECT_FALSE(ParseDouble("1.5 ").ok());
  EXPECT_FALSE(ParseDouble("5xyz").ok());   // the "5xyz" -> 5.0 env bug
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(ParseTest, RejectsNonFiniteAndOverflowDouble) {
  EXPECT_FALSE(ParseDouble("inf").ok());
  EXPECT_FALSE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseDouble("1e999").ok());
  EXPECT_FALSE(ParseDouble("-1e999").ok());
  // Subnormal underflow is implementation-defined ERANGE; accept either
  // a tiny value or a rejection, but never a crash.
  auto tiny = ParseDouble("1e-400");
  if (tiny.ok()) EXPECT_GE(*tiny, 0.0);
}

// ---- runtime lock-rank enforcement ----------------------------------------

#if !defined(NDEBUG) && !defined(ARCHIS_TSAN)
TEST(LockRankRuntimeDeathTest, OutOfOrderAcquisitionAborts) {
  // kWal (20) may not be acquired while holding kPageManager (60).
  EXPECT_DEATH(
      {
        Mutex pages(LockRank::kPageManager);
        Mutex wal(LockRank::kWal);
        MutexLock hold(pages);
        MutexLock violate(wal);
      },
      "lock-rank violation");
}
#endif

TEST(LockRankRuntime, MonotonicAcquisitionIsAllowed) {
  Mutex wal(LockRank::kWal);
  Mutex pages(LockRank::kPageManager);
  MutexLock a(wal);
  MutexLock b(pages);  // 20 -> 60: increasing, fine
  EXPECT_GE(lock_rank::HeldDepth(), 0);
}

TEST(LockRankRuntime, UnrankedMutexIsExemptEitherWay) {
  Mutex ranked(LockRank::kLogSink);
  Mutex scratch;  // kUnranked
  MutexLock a(ranked);
  MutexLock b(scratch);  // acquiring unranked under the top rank: fine
}

TEST(LockRankRuntime, ManualReleaseRestoresDepth) {
#ifndef NDEBUG
  const int before = lock_rank::HeldDepth();
  Mutex wal(LockRank::kWal);
  wal.Lock();
  EXPECT_EQ(lock_rank::HeldDepth(), before + 1);
  wal.Unlock();
  EXPECT_EQ(lock_rank::HeldDepth(), before);
#endif
}

}  // namespace
}  // namespace archis
