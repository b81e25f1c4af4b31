#include "table/value.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/string_util.h"

namespace tsfm {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kString:
      return "string";
    case ColumnType::kInteger:
      return "int";
    case ColumnType::kFloat:
      return "float";
    case ColumnType::kDate:
      return "date";
  }
  return "?";
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> ParseFloat(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  // A plain decimal takes std::from_chars, which rounds exactly as strtod
  // does. Whatever it does not consume whole (hex floats, a leading '+',
  // inf/nan, an exponent out of range) goes to strtod.
  const char lead = s[0] == '-' && s.size() > 1 ? s[1] : s[0];
  if (std::isdigit(static_cast<unsigned char>(lead)) || lead == '.') {
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec == std::errc() && ptr == s.data() + s.size()) return value;
  }
  // strtod needs a NUL-terminated string: copy ordinary cells to the stack
  // and only long ones to the heap.
  char stack[64];
  std::string heap;
  const char* begin = stack;
  if (s.size() < sizeof(stack)) {
    std::memcpy(stack, s.data(), s.size());
    stack[s.size()] = '\0';
  } else {
    heap.assign(s);
    begin = heap.c_str();
  }
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  if (end != begin + s.size()) return std::nullopt;
  return value;
}

namespace {

bool IsLeapYear(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

int DaysInMonth(int y, int m) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeapYear(y)) return 29;
  return kDays[m - 1];
}

// Days since 1970-01-01 for a valid (y, m, d).
int64_t CivilToDays(int y, int m, int d) {
  // Howard Hinnant's algorithm.
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) - 719468;
}

bool ValidDate(int y, int m, int d) {
  return y >= 1 && y <= 9999 && m >= 1 && m <= 12 && d >= 1 && d <= DaysInMonth(y, m);
}

// Splits `s` at `delim` into exactly three fields; false for any other count.
bool SplitThree(std::string_view s, char delim, std::string_view parts[3]) {
  const size_t a = s.find(delim);
  if (a == std::string_view::npos) return false;
  const size_t b = s.find(delim, a + 1);
  if (b == std::string_view::npos ||
      s.find(delim, b + 1) != std::string_view::npos) {
    return false;
  }
  parts[0] = s.substr(0, a);
  parts[1] = s.substr(a + 1, b - a - 1);
  parts[2] = s.substr(b + 1);
  return true;
}

// Value of a short all-digit string (at most ten bytes reach here).
int DigitsValue(std::string_view digits) {
  int value = 0;
  for (char c : digits) value = value * 10 + (c - '0');
  return value;
}

std::optional<int64_t> DateFromParts(const std::string_view parts[3],
                                     bool year_first) {
  for (int i = 0; i < 3; ++i) {
    if (!IsDigits(parts[i])) return std::nullopt;
  }
  const int a = DigitsValue(parts[0]);
  const int b = DigitsValue(parts[1]);
  const int c = DigitsValue(parts[2]);
  int y, m, d;
  if (year_first) {
    y = a;
    m = b;
    d = c;
  } else {
    d = a;
    m = b;
    y = c;
    if (!ValidDate(y, m, d) && ValidDate(c, a, b)) {
      // Fall back to MM-DD-YYYY.
      y = c;
      m = a;
      d = b;
    }
  }
  if (!ValidDate(y, m, d)) return std::nullopt;
  return CivilToDays(y, m, d);
}

}  // namespace

std::optional<int64_t> ParseDateToDays(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 10) return std::nullopt;
  // The first separator present decides the format.
  for (char delim : {'-', '/'}) {
    if (s.find(delim) == std::string_view::npos) continue;
    std::string_view parts[3];
    if (!SplitThree(s, delim, parts)) return std::nullopt;
    return DateFromParts(parts, /*year_first=*/parts[0].size() == 4);
  }
  // Bare year.
  if (IsDigits(s) && s.size() == 4) {
    const int y = DigitsValue(s);
    if (y >= 1000 && y <= 2999) return CivilToDays(y, 1, 1);
  }
  return std::nullopt;
}

bool IsNullToken(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return true;
  // Every null spelling fits in four bytes; lower-case onto the stack.
  if (s.size() > 4) return false;
  char buf[4];
  for (size_t i = 0; i < s.size(); ++i) {
    buf[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
  }
  const std::string_view lower(buf, s.size());
  return lower == "na" || lower == "nan" || lower == "null" || lower == "none" ||
         lower == "n/a" || lower == "-";
}

std::optional<double> NumericValue(std::string_view cell, ColumnType type) {
  if (IsNullToken(cell)) return std::nullopt;
  switch (type) {
    case ColumnType::kInteger: {
      auto v = ParseInt(cell);
      if (v) return static_cast<double>(*v);
      auto f = ParseFloat(cell);
      if (f) return *f;
      return std::nullopt;
    }
    case ColumnType::kFloat: {
      auto f = ParseFloat(cell);
      if (f) return *f;
      return std::nullopt;
    }
    case ColumnType::kDate: {
      auto d = ParseDateToDays(cell);
      if (d) return static_cast<double>(*d);
      return std::nullopt;
    }
    case ColumnType::kString:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace tsfm
