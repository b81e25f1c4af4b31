#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace tsfm {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool IsDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; });
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string PadLeft(std::string_view s, size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string PadRight(std::string_view s, size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

}  // namespace tsfm
