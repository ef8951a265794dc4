#ifndef PARPARAW_UTIL_STRING_UTIL_H_
#define PARPARAW_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parparaw {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string_view> SplitString(std::string_view s, char sep);

/// True for the six ASCII whitespace bytes: space, \t, \n, \v, \f and \r.
/// No other byte is whitespace, whatever the process locale.
inline bool IsAsciiWhitespace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Strips leading and trailing ASCII whitespace (IsAsciiWhitespace). Inline,
/// since every typed value passes through it on its way to a converter.
inline std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiWhitespace(s[b])) ++b;
  while (e > b && IsAsciiWhitespace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Formats a byte count as a human-readable string ("4.8 GB", "512 MB").
std::string FormatBytes(uint64_t bytes);

/// Formats a throughput in GB/s with two decimals.
std::string FormatThroughput(uint64_t bytes, double seconds);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

}  // namespace parparaw

#endif  // PARPARAW_UTIL_STRING_UTIL_H_
