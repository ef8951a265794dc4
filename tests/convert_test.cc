#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "convert/numeric.h"
#include "convert/temporal.h"

namespace parparaw {
namespace {

TEST(ParseInt64Test, BasicValues) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("1941", &v));
  EXPECT_EQ(v, 1941);
  EXPECT_TRUE(ParseInt64("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(ParseInt64("+5", &v));
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(ParseInt64("  42  ", &v));
  EXPECT_EQ(v, 42);
}

TEST(ParseInt64Test, Extremes) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999", &v));
}

TEST(ParseInt64Test, Malformed) {
  int64_t v;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("  ", &v));
  EXPECT_FALSE(ParseInt64("-", &v));
  EXPECT_FALSE(ParseInt64("12a", &v));
  EXPECT_FALSE(ParseInt64("1 2", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("0x10", &v));
}

TEST(ParseInt32Test, RangeChecked) {
  int32_t v;
  EXPECT_TRUE(ParseInt32("2147483647", &v));
  EXPECT_EQ(v, std::numeric_limits<int32_t>::max());
  EXPECT_TRUE(ParseInt32("-2147483648", &v));
  EXPECT_FALSE(ParseInt32("2147483648", &v));
  EXPECT_FALSE(ParseInt32("-2147483649", &v));
}

TEST(ParseFloat64Test, BasicValues) {
  double v;
  EXPECT_TRUE(ParseFloat64("199.99", &v));
  EXPECT_DOUBLE_EQ(v, 199.99);
  EXPECT_TRUE(ParseFloat64("-0.5", &v));
  EXPECT_DOUBLE_EQ(v, -0.5);
  EXPECT_TRUE(ParseFloat64("42", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_TRUE(ParseFloat64(".25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseFloat64("3.", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(ParseFloat64Test, Exponents) {
  double v;
  EXPECT_TRUE(ParseFloat64("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_TRUE(ParseFloat64("2.5E-2", &v));
  EXPECT_DOUBLE_EQ(v, 0.025);
  EXPECT_TRUE(ParseFloat64("1e+10", &v));
  EXPECT_DOUBLE_EQ(v, 1e10);
  EXPECT_FALSE(ParseFloat64("1e", &v));
  EXPECT_FALSE(ParseFloat64("1e+", &v));
}

TEST(ParseFloat64Test, SlowPathPrecision) {
  double v;
  // 19+ significant digits take the general path (std::from_chars).
  EXPECT_TRUE(ParseFloat64("1234567890.12345678901", &v));
  EXPECT_DOUBLE_EQ(v, 1234567890.12345678901);
  EXPECT_TRUE(ParseFloat64("0.000000000000000000001", &v));
  EXPECT_DOUBLE_EQ(v, 1e-21);
}

TEST(ParseFloat64Test, LongNumeralsHaveNoLengthLimit) {
  double v;
  // 622 bytes: "1", 20 zeros, ".", 600 zeros.
  const std::string long_integral =
      "1" + std::string(20, '0') + "." + std::string(600, '0');
  ASSERT_EQ(long_integral.size(), 622u);
  ASSERT_TRUE(ParseFloat64(long_integral, &v));
  EXPECT_EQ(v, 1e20);
  // A 600-digit fraction whose 601st significant digit would round up.
  const std::string long_fraction = "0." + std::string(599, '3') + "4";
  ASSERT_TRUE(ParseFloat64(long_fraction, &v));
  EXPECT_EQ(v, 1.0 / 3.0);
  ASSERT_TRUE(ParseFloat64("-" + long_fraction, &v));
  EXPECT_EQ(v, -1.0 / 3.0);
  // Grammar errors still reject at any length.
  EXPECT_FALSE(ParseFloat64(long_integral + "x", &v));
  EXPECT_FALSE(ParseFloat64(long_integral + ".5", &v));
}

TEST(ParseFloat64Test, OutOfRange) {
  double v = 1;
  // Underflow reads as zero of its sign; overflow is rejected.
  ASSERT_TRUE(ParseFloat64("1e-400", &v));
  EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(std::signbit(v));
  ASSERT_TRUE(ParseFloat64("-1e-400", &v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(std::signbit(v));
  ASSERT_TRUE(ParseFloat64("0." + std::string(400, '0') + "1", &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(ParseFloat64("4e-320", &v));
  EXPECT_GT(v, 0.0);  // subnormal, not flushed
  EXPECT_FALSE(ParseFloat64("1e309", &v));
  EXPECT_FALSE(ParseFloat64("-1e309", &v));
  EXPECT_FALSE(ParseFloat64("1" + std::string(400, '0'), &v));
  EXPECT_FALSE(ParseFloat64("1e10001", &v));  // exponent past the grammar
}

TEST(ParseFloat64Test, Malformed) {
  double v;
  EXPECT_FALSE(ParseFloat64("", &v));
  EXPECT_FALSE(ParseFloat64(".", &v));
  EXPECT_FALSE(ParseFloat64("-", &v));
  EXPECT_FALSE(ParseFloat64("1.2.3", &v));
  EXPECT_FALSE(ParseFloat64("abc", &v));
  EXPECT_FALSE(ParseFloat64("nan", &v));
  EXPECT_FALSE(ParseFloat64("inf", &v));
}

TEST(ParseDecimal64Test, ScalesCorrectly) {
  int64_t v;
  EXPECT_TRUE(ParseDecimal64("12.5", 2, &v));
  EXPECT_EQ(v, 1250);
  EXPECT_TRUE(ParseDecimal64("12.50", 2, &v));
  EXPECT_EQ(v, 1250);
  EXPECT_TRUE(ParseDecimal64("12", 2, &v));
  EXPECT_EQ(v, 1200);
  EXPECT_TRUE(ParseDecimal64("-0.05", 2, &v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(ParseDecimal64("0.30", 2, &v));
  EXPECT_EQ(v, 30);
}

TEST(ParseDecimal64Test, RejectsExcessFractionAndGarbage) {
  int64_t v;
  EXPECT_FALSE(ParseDecimal64("12.505", 2, &v));
  EXPECT_FALSE(ParseDecimal64("1.2.3", 2, &v));
  EXPECT_FALSE(ParseDecimal64("", 2, &v));
  EXPECT_FALSE(ParseDecimal64(".", 2, &v));
  EXPECT_FALSE(ParseDecimal64("abc", 2, &v));
}

TEST(ParseBoolTest, Variants) {
  bool v;
  EXPECT_TRUE(ParseBool("true", &v));
  EXPECT_TRUE(v);
  EXPECT_TRUE(ParseBool("FALSE", &v));
  EXPECT_FALSE(v);
  EXPECT_TRUE(ParseBool("1", &v));
  EXPECT_TRUE(v);
  EXPECT_TRUE(ParseBool("no", &v));
  EXPECT_FALSE(v);
  EXPECT_FALSE(ParseBool("maybe", &v));
  EXPECT_FALSE(ParseBool("", &v));
}

TEST(ParseDate32Test, EpochAndKnownDates) {
  int32_t v;
  EXPECT_TRUE(ParseDate32("1970-01-01", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseDate32("1970-01-02", &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ParseDate32("2000-03-01", &v));
  EXPECT_EQ(v, 11017);
  EXPECT_TRUE(ParseDate32("1969-12-31", &v));
  EXPECT_EQ(v, -1);
  EXPECT_TRUE(ParseDate32("2018-06-15", &v));
  EXPECT_EQ(v, 17697);
}

TEST(ParseDate32Test, ValidationIncludingLeapYears) {
  int32_t v;
  EXPECT_TRUE(ParseDate32("2020-02-29", &v));   // leap year
  EXPECT_FALSE(ParseDate32("2019-02-29", &v));  // not a leap year
  EXPECT_FALSE(ParseDate32("1900-02-29", &v));  // century, not leap
  EXPECT_TRUE(ParseDate32("2000-02-29", &v));   // 400-year leap
  EXPECT_FALSE(ParseDate32("2020-13-01", &v));
  EXPECT_FALSE(ParseDate32("2020-00-10", &v));
  EXPECT_FALSE(ParseDate32("2020-04-31", &v));
  EXPECT_FALSE(ParseDate32("2020-4-01", &v));   // fixed-width digits
  EXPECT_FALSE(ParseDate32("2020-04-01x", &v));
}

TEST(ParseTimestampTest, DateAndTime) {
  int64_t v;
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:01", &v));
  EXPECT_EQ(v, 1000000);
  EXPECT_TRUE(ParseTimestampMicros("1970-01-02T00:00:00", &v));
  EXPECT_EQ(v, int64_t{86400} * 1000000);
  EXPECT_TRUE(ParseTimestampMicros("1969-12-31 23:59:59", &v));
  EXPECT_EQ(v, -1000000);
}

TEST(ParseTimestampTest, FractionalSeconds) {
  int64_t v;
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00.5", &v));
  EXPECT_EQ(v, 500000);
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00.123456", &v));
  EXPECT_EQ(v, 123456);
  // Sub-microsecond digits are truncated.
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00.1234567", &v));
  EXPECT_EQ(v, 123456);
  EXPECT_FALSE(ParseTimestampMicros("1970-01-01 00:00:00.", &v));
}

TEST(ParseTimestampTest, DateOnlyAndMalformed) {
  int64_t v;
  EXPECT_TRUE(ParseTimestampMicros("2018-01-01", &v));
  EXPECT_EQ(v, int64_t{17532} * 86400 * 1000000);
  EXPECT_FALSE(ParseTimestampMicros("2018-01-01 25:00:00", &v));
  EXPECT_FALSE(ParseTimestampMicros("2018-01-01 10:61:00", &v));
  EXPECT_FALSE(ParseTimestampMicros("2018-01-01x10:00:00", &v));
  EXPECT_FALSE(ParseTimestampMicros("", &v));
}

TEST(DaysFromCivilTest, MatchesKnownAnchors) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(2000, 1, 1), 10957);
  EXPECT_EQ(DaysFromCivil(1600, 1, 1), -135140);
}

TEST(IsLeapYearTest, Rules) {
  EXPECT_TRUE(IsLeapYear(2020));
  EXPECT_FALSE(IsLeapYear(2019));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_TRUE(IsLeapYear(2000));
}

}  // namespace
}  // namespace parparaw
