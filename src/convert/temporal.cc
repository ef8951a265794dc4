#include "convert/temporal.h"

#include <cstdio>

namespace parparaw {
namespace convert_internal {

namespace {

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Parses exactly `n` digits at s[pos..pos+n), advancing pos.
bool FixedDigits(std::string_view s, size_t* pos, int n, int* out) {
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

bool ParseCivilDate(std::string_view s, size_t* pos, int* year, int* month,
                    int* day) {
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

}  // namespace

bool ParseDate32General(std::string_view s, int32_t* out) {
  size_t pos = 0;
  int year, month, day;
  if (!ParseCivilDate(s, &pos, &year, &month, &day)) return false;
  if (pos != s.size()) return false;
  *out = static_cast<int32_t>(
      DaysFromCivil(year, static_cast<unsigned>(month),
                    static_cast<unsigned>(day)));
  return true;
}

bool ParseTimestampMicrosGeneral(std::string_view s, int64_t* out) {
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

}  // namespace convert_internal

void CivilFromDays(int64_t z, int64_t* year, unsigned* month, unsigned* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *day = doy - (153 * mp + 2) / 5 + 1;
  *month = mp < 10 ? mp + 3 : mp - 9;
  *year = y + (*month <= 2);
}

std::string FormatDate32(int32_t days) {
  int64_t year;
  unsigned month, day;
  CivilFromDays(days, &year, &month, &day);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04lld-%02u-%02u",
                static_cast<long long>(year), month, day);
  return buf;
}

std::string FormatTimestampMicros(int64_t micros) {
  const int64_t kDay = int64_t{86400} * 1000000;
  int64_t days = micros / kDay;
  int64_t rem = micros % kDay;
  if (rem < 0) {
    rem += kDay;
    --days;
  }
  const int64_t total_seconds = rem / 1000000;
  const int64_t frac = rem % 1000000;
  int64_t year;
  unsigned month, day;
  CivilFromDays(days, &year, &month, &day);
  char buf[48];
  if (frac == 0) {
    std::snprintf(buf, sizeof(buf), "%04lld-%02u-%02u %02lld:%02lld:%02lld",
                  static_cast<long long>(year), month, day,
                  static_cast<long long>(total_seconds / 3600),
                  static_cast<long long>((total_seconds / 60) % 60),
                  static_cast<long long>(total_seconds % 60));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%04lld-%02u-%02u %02lld:%02lld:%02lld.%06lld",
                  static_cast<long long>(year), month, day,
                  static_cast<long long>(total_seconds / 3600),
                  static_cast<long long>((total_seconds / 60) % 60),
                  static_cast<long long>(total_seconds % 60),
                  static_cast<long long>(frac));
  }
  return buf;
}

}  // namespace parparaw
