#ifndef PARPARAW_CONVERT_NUMERIC_H_
#define PARPARAW_CONVERT_NUMERIC_H_

#include <cstdint>
#include <limits>
#include <string_view>

#include "util/string_util.h"

namespace parparaw {

/// String-to-value converters used by the value rule (§3.3,
/// core/column_plan.h).
///
/// All converters are allocation-free, locale-independent, and accept
/// optional surrounding ASCII whitespace (TrimWhitespace: the six bytes
/// space, \t, \n, \v, \f, \r). They return false on any malformed input
/// (which the parser turns into a NULL or a record reject, Fig. 5).
///
/// They are inline, so the loops that convert values (the field gather,
/// the symbol-sort convert step, type inference) compile the parse into
/// their own bodies. Each begins with an exact fast path for the layouts
/// typed data mostly has, and hands every other input to a general path
/// in numeric.cc. Both paths give the same verdict and the same value bits
/// for every input the fast path takes.

namespace convert_internal {

inline bool IsDigit(char c) {
  return static_cast<unsigned char>(c) - unsigned{'0'} < 10;
}

/// Consumes an optional sign; true when it was '-'.
inline bool ConsumeMinus(std::string_view* s) {
  if (!s->empty() && ((*s)[0] == '+' || (*s)[0] == '-')) {
    const bool negative = (*s)[0] == '-';
    s->remove_prefix(1);
    return negative;
  }
  return false;
}

/// Exact powers of ten for the float fast path (a mantissa of at most 18
/// digits has at most 18 fractional ones).
inline constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,
                                    1e5,  1e6,  1e7,  1e8,  1e9,
                                    1e10, 1e11, 1e12, 1e13, 1e14,
                                    1e15, 1e16, 1e17, 1e18};

/// The general paths, for what the inline fast paths leave. `digits` and
/// `body` are the trimmed input after its sign.
bool ParseInt64General(std::string_view digits, bool negative, int64_t* out);
bool ParseFloat64General(std::string_view body, bool negative, double* out);

}  // namespace convert_internal

/// Parses a signed decimal integer. Rejects empty input, overflow, and
/// trailing garbage. Fast path: at most 18 digits after the sign, which
/// cannot overflow (10^18 - 1 < 2^63), accumulate unsigned with one range
/// test per byte. Longer inputs take the overflow-checked general path.
inline bool ParseInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  const bool negative = convert_internal::ConsumeMinus(&s);
  if (s.empty()) return false;
  if (s.size() > 18) {
    return convert_internal::ParseInt64General(s, negative, out);
  }
  uint64_t acc = 0;
  for (char c : s) {
    const unsigned digit = static_cast<unsigned char>(c) - unsigned{'0'};
    if (digit > 9) return false;
    acc = acc * 10 + digit;
  }
  const int64_t value = static_cast<int64_t>(acc);
  *out = negative ? -value : value;
  return true;
}

/// Parses a 32-bit signed integer (range-checked via ParseInt64).
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

/// Parses a floating-point number: [+-]digits[.digits][(e|E)[+-]digits],
/// with at least one mantissa digit and an exponent of at most 10000 in
/// magnitude; infinities and NaN are rejected.
///
/// Fast path (Clinger), in one pass: no exponent, at most 18 digits and a
/// mantissa below 2^53. The mantissa and the power of ten are then exact
/// doubles, so one divide rounds once and the result is correctly rounded.
/// Every other input takes the general path: a grammar check, then
/// std::from_chars on the text in place, correctly rounded at any length.
/// A value too small for a double reads as zero of its sign; one too
/// large is rejected.
inline bool ParseFloat64(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  const bool negative = convert_internal::ConsumeMinus(&s);
  if (s.empty()) return false;
  const size_t n = s.size();
  uint64_t mantissa = 0;
  size_t i = 0;
  for (; i < n && convert_internal::IsDigit(s[i]); ++i) {
    mantissa = mantissa * 10 + static_cast<unsigned>(s[i] - '0');
  }
  size_t digits = i;
  size_t frac_digits = 0;
  if (i < n && s[i] == '.') {
    for (++i; i < n && convert_internal::IsDigit(s[i]); ++i) {
      mantissa = mantissa * 10 + static_cast<unsigned>(s[i] - '0');
      ++frac_digits;
    }
    digits += frac_digits;
  }
  if (i == n && digits > 0 && digits <= 18 &&
      mantissa < (uint64_t{1} << 53)) {
    const double value =
        static_cast<double>(mantissa) / convert_internal::kPow10[frac_digits];
    *out = negative ? -value : value;
    return true;
  }
  return convert_internal::ParseFloat64General(s, negative, out);
}

/// Parses a fixed-point decimal with `scale` fractional digits into a
/// scaled int64 (e.g. "12.5" with scale 2 -> 1250). Excess fractional
/// digits are rejected; missing ones are zero-padded. One pass with an
/// overflow test per digit.
inline bool ParseDecimal64(std::string_view s, int32_t scale, int64_t* out) {
  s = TrimWhitespace(s);
  const int sign = convert_internal::ConsumeMinus(&s) ? -1 : 1;
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
    if (!convert_internal::IsDigit(c)) return false;
    if (frac_seen >= 0) {
      if (frac_seen == scale) return false;  // excess fractional digits
      ++frac_seen;
    }
    if (acc > kMaxBeforeMul) return false;
    acc = acc * 10 + static_cast<unsigned>(c - '0');
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

/// Parses booleans: true/false, t/f, 1/0, yes/no (case-insensitive).
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

}  // namespace parparaw

#endif  // PARPARAW_CONVERT_NUMERIC_H_
