// The reference sketcher: the three-pass BuildTableSketch and the
// copying value parsers and string helpers it stood on, kept verbatim as a
// test oracle.
//
// The library's BuildTableSketch walks each column once over string_views,
// and its parsers copy nothing to the heap for ordinary cells. Their output
// must stay bit-for-bit what these bodies compute: per column, one
// unordered_set<std::string> for the distinct cells, one for the distinct
// lower-cased words (through SplitWhitespace and ToLower), and a third walk
// that null-checks and parses every cell again for the statistics.
// sketch_test compares whole TableSketches against BuildTableSketch here;
// table_test compares the parsers. Header-only, like test_util.h.
#ifndef TSFM_TESTS_SKETCH_ORACLE_H_
#define TSFM_TESTS_SKETCH_ORACLE_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sketch/minhash.h"
#include "sketch/numerical_sketch.h"
#include "sketch/table_sketch.h"
#include "table/stats.h"
#include "table/table.h"
#include "table/value.h"
#include "util/string_util.h"

namespace tsfm::oracle {

// ----------------------------------------------------------- string help

inline std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

inline std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

inline std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

// ------------------------------------------------------------ value parse

inline std::optional<double> ParseFloat(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

inline bool IsLeapYear(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

inline int DaysInMonth(int y, int m) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeapYear(y)) return 29;
  return kDays[m - 1];
}

inline int64_t CivilToDays(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) - 719468;
}

inline bool ValidDate(int y, int m, int d) {
  return y >= 1 && y <= 9999 && m >= 1 && m <= 12 && d >= 1 && d <= DaysInMonth(y, m);
}

inline std::optional<int64_t> ParseDateToDays(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 10) return std::nullopt;

  auto try_parts = [](const std::vector<std::string>& parts,
                      bool year_first) -> std::optional<int64_t> {
    if (parts.size() != 3) return std::nullopt;
    for (const auto& p : parts) {
      if (!IsDigits(p)) return std::nullopt;
    }
    int a = std::atoi(parts[0].c_str());
    int b = std::atoi(parts[1].c_str());
    int c = std::atoi(parts[2].c_str());
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
        y = c;
        m = a;
        d = b;
      }
    }
    if (!ValidDate(y, m, d)) return std::nullopt;
    return CivilToDays(y, m, d);
  };

  if (s.find('-') != std::string_view::npos) {
    auto parts = Split(s, '-');
    if (parts.size() == 3 && parts[0].size() == 4) return try_parts(parts, true);
    if (parts.size() == 3) return try_parts(parts, false);
    return std::nullopt;
  }
  if (s.find('/') != std::string_view::npos) {
    auto parts = Split(s, '/');
    if (parts.size() == 3 && parts[0].size() == 4) return try_parts(parts, true);
    if (parts.size() == 3) return try_parts(parts, false);
    return std::nullopt;
  }
  if (IsDigits(s) && s.size() == 4) {
    int y = std::atoi(std::string(s).c_str());
    if (y >= 1000 && y <= 2999) return CivilToDays(y, 1, 1);
  }
  return std::nullopt;
}

inline bool IsNullToken(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return true;
  std::string lower = ToLower(s);
  return lower == "na" || lower == "nan" || lower == "null" || lower == "none" ||
         lower == "n/a" || lower == "-";
}

inline std::optional<double> NumericValue(std::string_view cell, ColumnType type) {
  if (IsNullToken(cell)) return std::nullopt;
  switch (type) {
    case ColumnType::kInteger: {
      auto v = tsfm::ParseInt(cell);
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

// ----------------------------------------------------------------- sketch

inline std::vector<std::string> DistinctCells(const Column& column, size_t max_cells) {
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  for (const auto& cell : column.cells) {
    if (out.size() >= max_cells) break;
    if (IsNullToken(cell)) continue;
    if (seen.insert(cell).second) out.push_back(cell);
  }
  return out;
}

inline std::vector<std::string> DistinctWords(const Column& column, size_t max_cells) {
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  size_t budget = max_cells;
  for (const auto& cell : column.cells) {
    if (budget == 0) break;
    --budget;
    if (IsNullToken(cell)) continue;
    for (const auto& word : SplitWhitespace(cell)) {
      std::string lower = ToLower(word);
      if (seen.insert(lower).second) out.push_back(std::move(lower));
    }
  }
  return out;
}

inline ColumnStats ComputeColumnStats(const Column& column) {
  ColumnStats stats;
  const size_t rows = column.cells.size();
  if (rows == 0) return stats;

  std::unordered_set<std::string> uniques;
  size_t nulls = 0;
  size_t non_null = 0;
  double width_sum = 0.0;
  std::vector<double> numeric;
  numeric.reserve(rows);

  for (const auto& cell : column.cells) {
    if (IsNullToken(cell)) {
      ++nulls;
      continue;
    }
    ++non_null;
    uniques.insert(cell);
    width_sum += static_cast<double>(cell.size());
    if (column.type != ColumnType::kString) {
      auto v = oracle::NumericValue(cell, column.type);
      if (v) numeric.push_back(*v);
    }
  }

  stats.unique_fraction = static_cast<double>(uniques.size()) / static_cast<double>(rows);
  stats.nan_fraction = static_cast<double>(nulls) / static_cast<double>(rows);
  stats.avg_cell_width = non_null > 0 ? width_sum / static_cast<double>(non_null) : 0.0;

  if (!numeric.empty()) {
    stats.has_numeric = true;
    std::sort(numeric.begin(), numeric.end());
    for (int i = 0; i < 9; ++i) {
      stats.percentiles[i] = Percentile(numeric, 0.1 * (i + 1));
    }
    double sum = 0.0;
    for (double v : numeric) sum += v;
    stats.mean = sum / static_cast<double>(numeric.size());
    double var = 0.0;
    for (double v : numeric) var += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(var / static_cast<double>(numeric.size()));
    stats.min = numeric.front();
    stats.max = numeric.back();
  }
  return stats;
}

inline NumericalSketch MakeNumericalSketch(const Column& column) {
  ColumnStats stats = oracle::ComputeColumnStats(column);
  NumericalSketch sketch;
  sketch.values[0] = CompressStat(stats.unique_fraction);
  sketch.values[1] = CompressStat(stats.nan_fraction);
  sketch.values[2] = CompressStat(stats.avg_cell_width);
  if (stats.has_numeric) {
    for (int i = 0; i < 9; ++i) {
      sketch.values[3 + i] = CompressStat(stats.percentiles[i]);
    }
    sketch.values[12] = CompressStat(stats.mean);
    sketch.values[13] = CompressStat(stats.stddev);
    sketch.values[14] = CompressStat(stats.min);
    sketch.values[15] = CompressStat(stats.max);
  }
  return sketch;
}

inline MinHash MakeContentSnapshot(const Table& table, size_t num_perm, size_t max_rows) {
  MinHash mh(num_perm);
  const size_t rows = std::min(table.num_rows(), max_rows);
  for (size_t r = 0; r < rows; ++r) {
    mh.Update(table.RowString(r));
  }
  return mh;
}

inline TableSketch BuildTableSketch(const Table& table, const SketchOptions& options) {
  TableSketch sketch;
  sketch.table_id = table.id();
  sketch.description = table.description();
  sketch.content_snapshot =
      oracle::MakeContentSnapshot(table, options.num_perm, options.snapshot_rows);

  sketch.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    ColumnSketch cs;
    cs.name = col.name;
    cs.type = col.type;
    cs.cell_minhash = MinHashOfSet(oracle::DistinctCells(col, options.max_cells),
                                   options.num_perm);
    if (col.type == ColumnType::kString) {
      cs.word_minhash = MinHashOfSet(oracle::DistinctWords(col, options.max_cells),
                                     options.num_perm);
    } else {
      cs.word_minhash = MinHash(options.num_perm);
    }
    cs.numerical = oracle::MakeNumericalSketch(col);
    sketch.columns.push_back(std::move(cs));
  }
  return sketch;
}

}  // namespace tsfm::oracle

#endif  // TSFM_TESTS_SKETCH_ORACLE_H_
