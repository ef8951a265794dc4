// The inline converters against the out-of-line ones they replaced
// (tests/convert_oracle.h): the same verdict and bit-equal output on every
// input, the output compared even when both refuse (neither may write it).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "convert/numeric.h"
#include "convert/temporal.h"
#include "convert_oracle.h"
#include "util/string_util.h"

namespace parparaw {
namespace {

constexpr char kWhitespace[] = {' ', '\t', '\n', '\v', '\f', '\r'};

std::string Printable(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7F && c != '"' && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02X", byte);
      out += buf;
    }
  }
  return out + "\"";
}

/// Runs every converter and its oracle on each input, collecting the
/// first few disagreements.
class Comparer {
 public:
  void Check(std::string_view input) {
    Compare<int64_t>("ParseInt64", input, ParseInt64,
                     convert_oracle::ParseInt64);
    Compare<int32_t>("ParseInt32", input, ParseInt32,
                     convert_oracle::ParseInt32);
    Compare<double>("ParseFloat64", input, ParseFloat64,
                    convert_oracle::ParseFloat64);
    for (const int32_t scale : {0, 1, 2, 4, 18}) {
      Compare<int64_t>(
          "ParseDecimal64", input,
          [scale](std::string_view s, int64_t* out) {
            return ParseDecimal64(s, scale, out);
          },
          [scale](std::string_view s, int64_t* out) {
            return convert_oracle::ParseDecimal64(s, scale, out);
          });
    }
    Compare<int32_t>("ParseDate32", input, ParseDate32,
                     convert_oracle::ParseDate32);
    Compare<int64_t>("ParseTimestampMicros", input, ParseTimestampMicros,
                     convert_oracle::ParseTimestampMicros);
    Compare<bool>("ParseBool", input, ParseBool, convert_oracle::ParseBool);
    const std::string_view trimmed = TrimWhitespace(input);
    const std::string_view oracle_trimmed =
        convert_oracle::TrimWhitespace(input);
    if (trimmed.data() != oracle_trimmed.data() ||
        trimmed.size() != oracle_trimmed.size()) {
      Record("TrimWhitespace", input, "different views");
    }
  }

  int64_t accepted() const { return accepted_; }

  /// Empty when every check agreed; else the count and the first few.
  std::string Report() const {
    if (mismatches_ == 0) return "";
    std::string out = std::to_string(mismatches_) + " mismatches:";
    for (const std::string& m : first_) out += "\n  " + m;
    return out;
  }

 private:
  template <typename T, typename Fresh, typename Oracle>
  void Compare(const char* name, std::string_view input, Fresh fresh,
               Oracle oracle) {
    // Both outputs start from one sentinel, so an output written on a
    // refusal, or written differently, shows.
    T got;
    T want;
    std::memset(&got, 0xA5, sizeof(T));
    std::memset(&want, 0xA5, sizeof(T));
    const bool got_ok = fresh(input, &got);
    const bool want_ok = oracle(input, &want);
    accepted_ += got_ok ? 1 : 0;
    if (got_ok != want_ok) {
      Record(name, input, got_ok ? "accepted, oracle refused"
                                 : "refused, oracle accepted");
    } else if (std::memcmp(&got, &want, sizeof(T)) != 0) {
      Record(name, input, "different output bits");
    }
  }

  void Record(const char* name, std::string_view input, const char* what) {
    ++mismatches_;
    if (first_.size() < 12) {
      first_.push_back(std::string(name) + "(" + Printable(input) + "): " +
                       what);
    }
  }

  int64_t accepted_ = 0;
  int64_t mismatches_ = 0;
  std::vector<std::string> first_;
};

// Joins the parts by appending, front to back.
std::string Cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out.append(part);
  return out;
}

std::string DigitRun(std::mt19937_64& rng, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += static_cast<char>('0' + rng() % 10);
  return out;
}

TEST(ConvertOracleTest, SeededSweepOverTheNumeralAlphabet) {
  // Digits weigh most; then the bytes the grammars test for, the six
  // whitespace bytes, and any byte at all.
  const std::string alphabet =
      std::string("01234567890123456789+-..eE-::T") +
      std::string(kWhitespace, sizeof(kWhitespace));
  std::mt19937_64 rng(20261020);
  Comparer comparer;
  for (int i = 0; i < 200000; ++i) {
    const int length = static_cast<int>(rng() % 25);
    std::string input;
    for (int k = 0; k < length; ++k) {
      input += rng() % 16 == 0 ? static_cast<char>(rng() & 0xFF)
                               : alphabet[rng() % alphabet.size()];
    }
    comparer.Check(input);
  }
  EXPECT_EQ(comparer.Report(), "");
  EXPECT_GT(comparer.accepted(), 0);
}

TEST(ConvertOracleTest, DigitRunsOfOneToTwentyTwo) {
  std::mt19937_64 rng(7);
  Comparer comparer;
  for (int n = 1; n <= 22; ++n) {
    std::vector<std::string> runs = {std::string(n, '9'), std::string(n, '0'),
                                     Cat({"1", std::string(n - 1, '0')})};
    for (int k = 0; k < 200; ++k) runs.push_back(DigitRun(rng, n));
    for (const std::string& run : runs) {
      for (const char* sign : {"", "-", "+"}) {
        const std::string signed_run = Cat({sign, run});
        comparer.Check(signed_run);
        comparer.Check(Cat({" ", signed_run, "\t"}));
        // A point anywhere, and an exponent.
        const size_t at = rng() % (run.size() + 1);
        const std::string_view digits = run;
        comparer.Check(
            Cat({sign, digits.substr(0, at), ".", digits.substr(at)}));
        comparer.Check(Cat({signed_run, "e", std::to_string(rng() % 40)}));
        comparer.Check(Cat({signed_run, "E-", std::to_string(rng() % 40)}));
        // One trailing byte.
        const char last = static_cast<char>(rng() & 0xFF);
        comparer.Check(Cat({signed_run, std::string_view(&last, 1)}));
      }
    }
  }
  EXPECT_EQ(comparer.Report(), "");
}

TEST(ConvertOracleTest, DateAndTimestampTemplates) {
  Comparer comparer;
  char buf[64];
  // Every month 00-13 and day 00-32 of years around the leap rules.
  for (const int year : {0, 1, 4, 100, 400, 1600, 1900, 1969, 1970, 1999,
                         2000, 2019, 2020, 2023, 2024, 2100, 9999}) {
    for (int month = 0; month <= 13; ++month) {
      for (int day = 0; day <= 32; ++day) {
        std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
        comparer.Check(buf);
        std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d 12:34:56", year,
                      month, day);
        comparer.Check(buf);
      }
    }
  }
  // Times with out-of-range fields, both separators and some wrong ones,
  // fractions of 0-7 digits, padding and one trailing byte.
  std::mt19937_64 rng(11);
  const char separators[] = {' ', 'T', ' ', 'T', 't', '_', ':', '-'};
  const int hours[] = {0, 9, 23, 24, 29, 99};
  const int sixties[] = {0, 1, 30, 59, 60, 61, 99};
  const std::string trailing[] = {"", "", "", "x", " ", "Z", "\r", "0", ":"};
  for (int i = 0; i < 40000; ++i) {
    const int year = static_cast<int>(rng() % 10000);
    const int month = static_cast<int>(rng() % 14);
    const int day = static_cast<int>(rng() % 33);
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d%c%02d:%02d:%02d", year,
                  month, day, separators[rng() % sizeof(separators)],
                  hours[rng() % 6], sixties[rng() % 7], sixties[rng() % 7]);
    std::string input = buf;
    const int fraction = static_cast<int>(rng() % 9) - 1;  // -1: none
    if (fraction >= 0) input += Cat({".", DigitRun(rng, fraction)});
    input += trailing[rng() % 9];
    if (rng() % 8 == 0) {
      input = Cat({std::string_view(&kWhitespace[rng() % 6], 1), input});
    }
    comparer.Check(input);
  }
  // Valid timestamps with one byte replaced, deleted or inserted.
  const std::string corrupt_with = "0189-:. Tx\t";
  for (int i = 0; i < 40000; ++i) {
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                  static_cast<int>(1900 + rng() % 200),
                  static_cast<int>(1 + rng() % 12),
                  static_cast<int>(1 + rng() % 28),
                  static_cast<int>(rng() % 24), static_cast<int>(rng() % 60),
                  static_cast<int>(rng() % 60));
    std::string input = buf;
    const size_t at = rng() % input.size();
    const char with = corrupt_with[rng() % corrupt_with.size()];
    switch (rng() % 3) {
      case 0:
        input[at] = with;
        break;
      case 1:
        input.erase(at, 1);
        break;
      default:
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(at), with);
        break;
    }
    comparer.Check(input);
    comparer.Check(input.substr(0, 10));
  }
  EXPECT_EQ(comparer.Report(), "");
  EXPECT_GT(comparer.accepted(), 0);
}

TEST(ConvertOracleTest, NamedBoundaries) {
  Comparer comparer;
  const std::vector<std::string> inputs = {
      // Integers: 17, 18 and 19 digits, the int64 limits and one past.
      "12345678901234567", "123456789012345678", "1234567890123456789",
      "99999999999999999", "999999999999999999", "9999999999999999999",
      "-999999999999999999", "000000000000000000001",
      "9223372036854775807", "9223372036854775808", "9223372036854775806",
      "-9223372036854775808", "-9223372036854775809", "-9223372036854775807",
      "+9223372036854775807", "+9223372036854775808", "+", "-", "+-1", "--1",
      "2147483647", "2147483648", "-2147483648", "-2147483649",
      // Floats: mantissas at 2^53 - 1, 2^53 and 2^53 + 1, 22 and 23
      // fraction digits, signed zeros, exponents at the grammar's bound.
      "9007199254740991", "9007199254740992", "9007199254740993",
      "900719925474099.1", "900719925474099.3", "-9007199254740993",
      "0.1234567890123456789012", "0.12345678901234567890123",
      "1.0000000000000000000001", "0", "-0", "+0", "-0.0", "0.", ".0", ".",
      "-.", "1e", "1e+", "1e-", "e5", ".e5", "1e10000", "1e10001",
      "1e-10000", "1e-10001", "1E308", "1.7976931348623157e308",
      "1.7976931348623159e308", "4.9406564584124654e-324", "2e-324",
      "-2e-324", "1e-400", "-1e-400", "0e99999", "123456789012345678.5",
      "1.5.", "1..5", "0x10", "nan", "inf", "-inf", "infinity",
      // Decimals: excess fraction digits, a second point, a lone point.
      "12.50", "12.505", "1.2.3", "-0.05", "922337203685477580.7",
      "92233720368547758.07",
      // Dates: 02-29 in leap and common years, month and day bounds.
      "2020-02-29", "2019-02-29", "1900-02-29", "2000-02-29", "2024-02-30",
      "2020-00-01", "2020-13-01", "2020-04-31", "2020-12-31", "0000-01-01",
      "2020-4-01", "2020/04/01", "20200401",
      // Timestamps: hour 24, the separators, fractions of 1-7 digits and
      // one trailing byte.
      "2020-01-01 24:00:00", "2020-01-01 23:59:59", "2020-01-01T00:00:00",
      "2020-01-01t00:00:00", "2020-01-01T", "2020-01-01 ",
      "2020-01-01 00:00:60", "2020-01-01 00:60:00", "2020-01-01 0:00:00",
      "2020-01-01 00:00:00.1", "2020-01-01 00:00:00.12",
      "2020-01-01 00:00:00.123", "2020-01-01 00:00:00.1234",
      "2020-01-01 00:00:00.12345", "2020-01-01 00:00:00.123456",
      "2020-01-01 00:00:00.1234567", "2020-01-01 00:00:00.",
      "2020-01-01 00:00:00x", "2020-01-01 00:00:00 ", " 2020-01-01 00:00:00",
      "2020-01-01 00:00:00Z", "1969-12-31 23:59:59", "9999-12-31 23:59:59",
      // Booleans.
      "true", "TRUE", " t ", "yes", "No", "0", "1", "2", "tru",
  };
  for (const std::string& input : inputs) comparer.Check(input);
  EXPECT_EQ(comparer.Report(), "");
}

TEST(ConvertOracleTest, TrimStripsExactlyTheSixAsciiWhitespaceBytes) {
  for (int byte = 0; byte <= 0xFF; ++byte) {
    const char c = static_cast<char>(byte);
    bool whitespace = false;
    for (const char w : kWhitespace) whitespace = whitespace || c == w;
    EXPECT_EQ(IsAsciiWhitespace(c), whitespace) << byte;
    const std::string alone(1, c);
    EXPECT_EQ(TrimWhitespace(alone).empty(), whitespace) << byte;
    EXPECT_EQ(TrimWhitespace(alone + "x").size(), whitespace ? 1u : 2u)
        << byte;
    EXPECT_EQ(TrimWhitespace("x" + alone).size(), whitespace ? 1u : 2u)
        << byte;
    // In the C locale the oracle's trim agrees byte for byte.
    EXPECT_EQ(convert_oracle::TrimWhitespace(alone).empty(), whitespace)
        << byte;
  }
}

}  // namespace
}  // namespace parparaw
