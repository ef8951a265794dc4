#include "convert/numeric.h"

#include <charconv>
#include <limits>
#include <system_error>

namespace parparaw {
namespace convert_internal {

bool ParseInt64General(std::string_view digits, bool negative,
                       int64_t* out) {
  // Accumulate negatively: the magnitude of INT64_MIN exceeds INT64_MAX.
  int64_t acc = 0;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (char c : digits) {
    if (!IsDigit(c)) return false;
    const int digit = c - '0';
    if (acc < (kMin + digit) / 10) return false;  // overflow
    acc = acc * 10 - digit;
  }
  if (!negative) {
    if (acc == kMin) return false;  // +9223372036854775808 overflows
    acc = -acc;
  }
  *out = acc;
  return true;
}

bool ParseFloat64General(std::string_view body, bool negative, double* out) {
  // The grammar: digits[.digits][(e|E)[+-]digits], at least one mantissa
  // digit, an exponent of at most 10000 in magnitude.
  const size_t n = body.size();
  size_t i = 0;
  while (i < n && IsDigit(body[i])) ++i;
  const size_t int_digits = i;
  size_t frac_digits = 0;
  if (i < n && body[i] == '.') {
    for (++i; i < n && IsDigit(body[i]); ++i) ++frac_digits;
  }
  if (int_digits + frac_digits == 0) return false;
  int exponent = 0;
  if (i < n && (body[i] == 'e' || body[i] == 'E')) {
    ++i;
    int exp_sign = 1;
    if (i < n && (body[i] == '+' || body[i] == '-')) {
      exp_sign = body[i] == '-' ? -1 : 1;
      ++i;
    }
    if (i >= n) return false;
    int exp_acc = 0;
    for (; i < n && IsDigit(body[i]); ++i) {
      exp_acc = exp_acc * 10 + (body[i] - '0');
      if (exp_acc > 10000) return false;
    }
    exponent = exp_sign * exp_acc;
  }
  if (i != n) return false;  // trailing garbage

  double value = 0;
  const std::from_chars_result parsed =
      std::from_chars(body.data(), body.data() + n, value);
  if (parsed.ptr != body.data() + n) return false;
  if (parsed.ec == std::errc::result_out_of_range) {
    // Out of range is an underflow to zero or an overflow. The decimal
    // exponent of the leading nonzero digit tells them apart: the value is
    // below 10^magnitude.
    int64_t magnitude = exponent;
    size_t lead = 0;
    while (lead < int_digits && body[lead] == '0') ++lead;
    if (lead < int_digits) {
      magnitude += static_cast<int64_t>(int_digits - lead);
    } else {
      const size_t frac_end = int_digits + 1 + frac_digits;
      size_t k = int_digits + 1;  // past the point
      while (k < frac_end && body[k] == '0') ++k;
      magnitude -= static_cast<int64_t>(k - int_digits - 1);
    }
    if (magnitude > 0) return false;  // overflow
    value = 0;
  } else if (parsed.ec != std::errc()) {
    return false;
  }
  *out = negative ? -value : value;
  return true;
}

}  // namespace convert_internal
}  // namespace parparaw
