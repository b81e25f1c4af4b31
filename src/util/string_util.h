// Small string helpers shared across the library.
#ifndef TSFM_UTIL_STRING_UTIL_H_
#define TSFM_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace tsfm {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True when every character is an ASCII digit (and s is non-empty).
bool IsDigits(std::string_view s);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double v, int precision);

/// Left-pads `s` with spaces to `width` (no-op when already wider).
std::string PadLeft(std::string_view s, size_t width);

/// Right-pads `s` with spaces to `width`.
std::string PadRight(std::string_view s, size_t width);

}  // namespace tsfm

#endif  // TSFM_UTIL_STRING_UTIL_H_
