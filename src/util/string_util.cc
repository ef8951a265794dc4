#include "util/string_util.h"

#include <cctype>
#include <cstdio>

namespace parparaw {

std::vector<std::string_view> SplitString(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t begin = 0;
  while (true) {
    size_t pos = s.find(sep, begin);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(begin));
      break;
    }
    out.push_back(s.substr(begin, pos - begin));
    begin = pos + 1;
  }
  return out;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (uint64_t{1} << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GB",
                  static_cast<double>(bytes) / (1 << 30));
  } else if (bytes >= (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1 << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatThroughput(uint64_t bytes, double seconds) {
  char buf[64];
  double gbps = seconds > 0
                    ? static_cast<double>(bytes) / seconds / (1 << 30)
                    : 0.0;
  std::snprintf(buf, sizeof(buf), "%.2f GB/s", gbps);
  return buf;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace parparaw
