#ifndef PARPARAW_CONVERT_TEMPORAL_H_
#define PARPARAW_CONVERT_TEMPORAL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/string_util.h"

namespace parparaw {

/// Temporal converters for the Arrow date32 / timestamp[us] types, used
/// by the value rule (core/column_plan.h). Like the numeric converters
/// (convert/numeric.h) they trim ASCII whitespace, are inline, and begin
/// with an exact fast path: the fixed layouts "YYYY-MM-DD" and
/// "YYYY-MM-DD HH:MM:SS" (or with a 'T' separator) after the trim. Their
/// separators are checked and their digits read at fixed offsets, SWAR
/// over 8-byte words loaded with memcpy, and the ranges are checked as the
/// general path checks them (month, day with leap years, hour, minute,
/// second). Fractional seconds, date-only timestamps and every other input
/// take the general path in temporal.cc, which gives the same verdict and
/// value.

/// True if `year` is a leap year (proleptic Gregorian).
inline bool IsLeapYear(int64_t year) {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

/// Days since epoch for a validated (year, month, day); the Howard Hinnant
/// days_from_civil algorithm.
inline int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  // Shift the year so March is month 0.
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

namespace convert_internal {

inline constexpr int kDaysInMonth[] = {31, 28, 31, 30, 31, 30,
                                       31, 31, 30, 31, 30, 31};

/// The 8 bytes at `p` as a little-endian word. The load is a memcpy, so it
/// makes no alignment or aliasing assumption.
inline uint64_t LoadWord(const char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// Matches the 8 bytes of `w` against a layout: the bytes `digits` selects
/// must be ASCII digits, the bytes `separators` selects must equal
/// `pattern`'s, and the rest are not looked at. Byte i of a word, mask or
/// pattern (bits 8i to 8i + 7) stands for p[i]; `pattern` holds '0' (0x30)
/// at the digits. On a match, `*pairs` holds in byte i the two-digit
/// number the digits at bytes i and i + 1 spell.
inline bool MatchWord(uint64_t w, uint64_t pattern, uint64_t digits,
                      uint64_t separators, uint64_t* pairs) {
  // A digit byte XOR '0' is its value; every other byte XOR '0' is >= 10.
  const uint64_t x = w ^ pattern;
  const uint64_t values = x & digits;
  // A byte below 10 stays below 0x80 when 0x76 is added to it.
  const uint64_t high = 0x8080808080808080ull;
  const uint64_t not_digit =
      ((values + 0x7676767676767676ull) | values) & high;
  if ((not_digit | (x & separators)) != 0) return false;
  *pairs = values * 10 + (values >> 8);
  return true;
}

inline int ByteAt(uint64_t w, int i) {
  return static_cast<int>((w >> (8 * i)) & 0xFF);
}

/// "YYYY-MM-" at p[0, 8): the year and the month, or false when the bytes
/// do not have the layout.
inline bool YearMonth(const char* p, int* year, int* month) {
  uint64_t pairs = 0;
  if (!MatchWord(LoadWord(p), 0x2D30302D30303030ull, 0x00FFFF00FFFFFFFFull,
                 0xFF0000FF00000000ull, &pairs)) {
    return false;
  }
  *year = ByteAt(pairs, 0) * 100 + ByteAt(pairs, 2);
  *month = ByteAt(pairs, 5);
  return true;
}

/// Days since the epoch of a (year, month, day) read from a fixed layout,
/// or false when the month or the day is out of range.
inline bool CheckedDays(int year, int month, int day, int64_t* days) {
  if (month < 1 || month > 12) return false;
  int max_day = kDaysInMonth[month - 1];
  if (month == 2 && IsLeapYear(year)) max_day = 29;
  if (day < 1 || day > max_day) return false;
  *days = DaysFromCivil(year, static_cast<unsigned>(month),
                        static_cast<unsigned>(day));
  return true;
}

/// The general paths, for what the inline fast paths leave. `s` is the
/// trimmed input.
bool ParseDate32General(std::string_view s, int32_t* out);
bool ParseTimestampMicrosGeneral(std::string_view s, int64_t* out);

}  // namespace convert_internal

/// Parses "YYYY-MM-DD" into days since the UNIX epoch (proleptic
/// Gregorian). Validates month/day ranges including leap years.
inline bool ParseDate32(std::string_view s, int32_t* out) {
  s = TrimWhitespace(s);
  int year = 0;
  int month = 0;
  if (s.size() == 10 &&
      convert_internal::YearMonth(s.data(), &year, &month)) {
    const unsigned d0 = static_cast<unsigned char>(s[8]) - unsigned{'0'};
    const unsigned d1 = static_cast<unsigned char>(s[9]) - unsigned{'0'};
    if (d0 <= 9 && d1 <= 9) {
      int64_t days = 0;
      if (!convert_internal::CheckedDays(year, month,
                                         static_cast<int>(d0 * 10 + d1),
                                         &days)) {
        return false;
      }
      *out = static_cast<int32_t>(days);
      return true;
    }
  }
  return convert_internal::ParseDate32General(s, out);
}

/// Parses "YYYY-MM-DD HH:MM:SS[.ffffff]" (or with a 'T' separator) into
/// microseconds since the UNIX epoch, UTC. A date alone reads as its
/// midnight; fraction digits past the sixth are truncated.
inline bool ParseTimestampMicros(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  int year = 0;
  int month = 0;
  uint64_t day_hour_minute = 0;
  uint64_t hour_minute_second = 0;
  // "DD?HH:MM" at 8 (the separator at 10 is tested on its own) and
  // "HH:MM:SS" at 11, of which the ':' at 16 and the seconds are new.
  if (s.size() == 19 && (s[10] == ' ' || s[10] == 'T') &&
      convert_internal::YearMonth(s.data(), &year, &month) &&
      convert_internal::MatchWord(
          convert_internal::LoadWord(s.data() + 8), 0x30303A3030303030ull,
          0xFFFF00FFFF00FFFFull, 0x0000FF0000000000ull, &day_hour_minute) &&
      convert_internal::MatchWord(
          convert_internal::LoadWord(s.data() + 11), 0x30303A3030303030ull,
          0xFFFF000000000000ull, 0x0000FF0000000000ull,
          &hour_minute_second)) {
    const int hour = convert_internal::ByteAt(day_hour_minute, 3);
    const int minute = convert_internal::ByteAt(day_hour_minute, 6);
    const int second = convert_internal::ByteAt(hour_minute_second, 6);
    int64_t days = 0;
    if (!convert_internal::CheckedDays(
            year, month, convert_internal::ByteAt(day_hour_minute, 0),
            &days) ||
        hour > 23 || minute > 59 || second > 59) {
      return false;
    }
    *out = days * int64_t{86400} * 1000000 +
           (int64_t{hour} * 3600 + minute * 60 + second) * 1000000;
    return true;
  }
  return convert_internal::ParseTimestampMicrosGeneral(s, out);
}

/// Inverse of DaysFromCivil (Howard Hinnant's civil_from_days).
void CivilFromDays(int64_t days, int64_t* year, unsigned* month,
                   unsigned* day);

/// Formats days-since-epoch as "YYYY-MM-DD".
std::string FormatDate32(int32_t days);

/// Formats microseconds-since-epoch as "YYYY-MM-DD HH:MM:SS[.ffffff]"
/// (fraction omitted when zero).
std::string FormatTimestampMicros(int64_t micros);

}  // namespace parparaw

#endif  // PARPARAW_CONVERT_TEMPORAL_H_
