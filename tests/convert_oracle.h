#ifndef PARPARAW_TESTS_CONVERT_ORACLE_H_
#define PARPARAW_TESTS_CONVERT_ORACLE_H_

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "util/string_util.h"

namespace parparaw {

/// \brief The reference the inline converters (convert/numeric.h,
/// convert/temporal.h) are checked against: the out-of-line converters
/// they replaced, copied verbatim (the trim through std::isspace, the
/// overflow-checked integer loop, the float fast path with its strtod
/// fallback, the digit-at-a-time date and time readers, the boolean
/// spellings). EqualsIgnoreCase is shared, unchanged. Every input must
/// give the same verdict and value bits from both, except float numerals
/// of 512 bytes or more, which the oracle refuses (its fallback copies into
/// a 512-byte buffer) and the converter reads.
namespace convert_oracle {

inline std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Consumes an optional sign; returns +1/-1.
inline int ConsumeSign(std::string_view* s) {
  if (!s->empty() && ((*s)[0] == '+' || (*s)[0] == '-')) {
    const int sign = (*s)[0] == '-' ? -1 : 1;
    s->remove_prefix(1);
    return sign;
  }
  return 1;
}

inline bool ParseInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  const int sign = ConsumeSign(&s);
  if (s.empty()) return false;
  // Accumulate negatively: the magnitude of INT64_MIN exceeds INT64_MAX.
  int64_t acc = 0;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (char c : s) {
    if (!IsDigit(c)) return false;
    const int digit = c - '0';
    if (acc < (kMin + digit) / 10) return false;  // overflow
    acc = acc * 10 - digit;
  }
  if (sign > 0) {
    if (acc == kMin) return false;  // +9223372036854775808 overflows
    acc = -acc;
  }
  *out = acc;
  return true;
}

inline bool ParseInt32(std::string_view s, int32_t* out) {
  int64_t wide;
  if (!ParseInt64(s, &wide)) return false;
  if (wide < std::numeric_limits<int32_t>::min() ||
      wide > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  *out = static_cast<int32_t>(wide);
  return true;
}

inline bool ParseFloat64(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  std::string_view body = s;
  const int sign = ConsumeSign(&body);
  if (body.empty()) return false;

  // Fast path (Clinger): when the mantissa fits in a double exactly
  // (< 2^53) and the power of ten is itself exact (|e| <= 22), one
  // multiply or divide of two exact values rounds once — the result is
  // correctly rounded, bit-identical to strtod. Larger mantissas fall
  // through to strtod; digits <= 18 only bounds uint64 accumulation.
  uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = 0;
  size_t i = 0;
  bool any_digit = false;
  for (; i < body.size() && IsDigit(body[i]); ++i) {
    mantissa = mantissa * 10 + (body[i] - '0');
    ++digits;
    any_digit = true;
  }
  if (i < body.size() && body[i] == '.') {
    ++i;
    for (; i < body.size() && IsDigit(body[i]); ++i) {
      mantissa = mantissa * 10 + (body[i] - '0');
      ++digits;
      ++frac_digits;
      any_digit = true;
    }
  }
  if (!any_digit) return false;
  int exponent = 0;
  bool has_exp = false;
  if (i < body.size() && (body[i] == 'e' || body[i] == 'E')) {
    has_exp = true;
    ++i;
    int exp_sign = 1;
    if (i < body.size() && (body[i] == '+' || body[i] == '-')) {
      exp_sign = body[i] == '-' ? -1 : 1;
      ++i;
    }
    if (i >= body.size()) return false;
    int exp_acc = 0;
    for (; i < body.size() && IsDigit(body[i]); ++i) {
      exp_acc = exp_acc * 10 + (body[i] - '0');
      if (exp_acc > 10000) return false;
    }
    exponent = exp_sign * exp_acc;
  }
  if (i != body.size()) return false;  // trailing garbage

  const int total_exp = exponent - frac_digits;
  if (digits <= 18 && mantissa < (uint64_t{1} << 53) && total_exp >= -22 &&
      total_exp <= 22 && !has_exp) {
    static constexpr double kPow10[] = {
        1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10,
        1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21,
        1e22};
    double value = static_cast<double>(mantissa);
    if (total_exp >= 0) {
      value *= kPow10[total_exp];
    } else {
      value /= kPow10[-total_exp];
    }
    *out = sign * value;
    return true;
  }

  // Slow path: delegate to strtod for full precision / extreme exponents.
  char buf[512];
  if (s.size() >= sizeof(buf)) return false;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + s.size()) return false;
  if (std::isinf(value) || std::isnan(value)) return false;
  *out = value;
  return true;
}

inline bool ParseDecimal64(std::string_view s, int32_t scale, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  const int sign = ConsumeSign(&s);
  if (s.empty()) return false;
  uint64_t acc = 0;
  int frac_seen = -1;  // -1: before the point
  bool any_digit = false;
  constexpr uint64_t kMaxBeforeMul =
      std::numeric_limits<int64_t>::max() / 10;
  for (char c : s) {
    if (c == '.') {
      if (frac_seen >= 0) return false;  // second point
      frac_seen = 0;
      continue;
    }
    if (!IsDigit(c)) return false;
    if (frac_seen >= 0) {
      if (frac_seen == scale) return false;  // excess fractional digits
      ++frac_seen;
    }
    if (acc > kMaxBeforeMul) return false;
    acc = acc * 10 + (c - '0');
    any_digit = true;
  }
  if (!any_digit) return false;
  const int pad = scale - (frac_seen < 0 ? 0 : frac_seen);
  for (int d = 0; d < pad; ++d) {
    if (acc > kMaxBeforeMul) return false;
    acc *= 10;
  }
  if (acc > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return false;
  }
  *out = sign * static_cast<int64_t>(acc);
  return true;
}

inline bool ParseBool(std::string_view s, bool* out) {
  s = TrimWhitespace(s);
  if (EqualsIgnoreCase(s, "true") || EqualsIgnoreCase(s, "t") ||
      EqualsIgnoreCase(s, "1") || EqualsIgnoreCase(s, "yes")) {
    *out = true;
    return true;
  }
  if (EqualsIgnoreCase(s, "false") || EqualsIgnoreCase(s, "f") ||
      EqualsIgnoreCase(s, "0") || EqualsIgnoreCase(s, "no")) {
    *out = false;
    return true;
  }
  return false;
}

inline bool IsLeapYear(int64_t year) {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

inline int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  // Howard Hinnant's algorithm, shifting the year so March is month 0.
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

inline bool FixedDigits(std::string_view s, size_t* pos, int n, int* out) {
  if (*pos + n > s.size()) return false;
  int acc = 0;
  for (int i = 0; i < n; ++i) {
    const char c = s[*pos + i];
    if (!IsDigit(c)) return false;
    acc = acc * 10 + (c - '0');
  }
  *pos += n;
  *out = acc;
  return true;
}

inline constexpr int kDaysInMonth[] = {31, 28, 31, 30, 31, 30,
                                       31, 31, 30, 31, 30, 31};

inline bool ParseCivilDate(std::string_view s, size_t* pos, int* year,
                           int* month, int* day) {
  if (!FixedDigits(s, pos, 4, year)) return false;
  if (*pos >= s.size() || s[*pos] != '-') return false;
  ++*pos;
  if (!FixedDigits(s, pos, 2, month)) return false;
  if (*pos >= s.size() || s[*pos] != '-') return false;
  ++*pos;
  if (!FixedDigits(s, pos, 2, day)) return false;
  if (*month < 1 || *month > 12) return false;
  int max_day = kDaysInMonth[*month - 1];
  if (*month == 2 && IsLeapYear(*year)) max_day = 29;
  if (*day < 1 || *day > max_day) return false;
  return true;
}

inline bool ParseDate32(std::string_view s, int32_t* out) {
  s = TrimWhitespace(s);
  size_t pos = 0;
  int year, month, day;
  if (!ParseCivilDate(s, &pos, &year, &month, &day)) return false;
  if (pos != s.size()) return false;
  *out = static_cast<int32_t>(
      DaysFromCivil(year, static_cast<unsigned>(month),
                    static_cast<unsigned>(day)));
  return true;
}

inline bool ParseTimestampMicros(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  size_t pos = 0;
  int year, month, day;
  if (!ParseCivilDate(s, &pos, &year, &month, &day)) return false;
  int64_t micros = DaysFromCivil(year, static_cast<unsigned>(month),
                                 static_cast<unsigned>(day)) *
                   int64_t{86400} * 1000000;
  if (pos == s.size()) {  // date-only timestamp
    *out = micros;
    return true;
  }
  if (s[pos] != ' ' && s[pos] != 'T') return false;
  ++pos;
  int hour, minute, second;
  if (!FixedDigits(s, &pos, 2, &hour)) return false;
  if (pos >= s.size() || s[pos] != ':') return false;
  ++pos;
  if (!FixedDigits(s, &pos, 2, &minute)) return false;
  if (pos >= s.size() || s[pos] != ':') return false;
  ++pos;
  if (!FixedDigits(s, &pos, 2, &second)) return false;
  if (hour > 23 || minute > 59 || second > 59) return false;
  micros += (int64_t{hour} * 3600 + minute * 60 + second) * 1000000;
  if (pos < s.size() && s[pos] == '.') {
    ++pos;
    int64_t frac = 0;
    int digits = 0;
    while (pos < s.size() && IsDigit(s[pos])) {
      if (digits < 6) {
        frac = frac * 10 + (s[pos] - '0');
        ++digits;
      }
      ++pos;
    }
    if (digits == 0) return false;
    for (int d = digits; d < 6; ++d) frac *= 10;
    micros += frac;
  }
  if (pos != s.size()) return false;
  *out = micros;
  return true;
}

}  // namespace convert_oracle
}  // namespace parparaw

#endif  // PARPARAW_TESTS_CONVERT_ORACLE_H_
