#include "table/stats.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>

namespace tsfm {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

ColumnStats ComputeColumnStats(const Column& column) {
  std::unordered_set<std::string_view> distinct;
  size_t nulls = 0;
  double width_sum = 0.0;
  std::vector<double> numeric;
  for (const auto& cell : column.cells) {
    if (IsNullToken(cell)) {
      ++nulls;
      continue;
    }
    distinct.insert(cell);
    width_sum += static_cast<double>(cell.size());
    if (column.type != ColumnType::kString) {
      auto v = NumericValue(cell, column.type);
      if (v) numeric.push_back(*v);
    }
  }
  return SummarizeColumn(column.cells.size(), distinct.size(), nulls, width_sum,
                         &numeric);
}

ColumnStats SummarizeColumn(size_t rows, size_t distinct, size_t nulls,
                            double width_sum, std::vector<double>* numeric) {
  ColumnStats stats;
  if (rows == 0) return stats;
  const size_t non_null = rows - nulls;
  stats.unique_fraction = static_cast<double>(distinct) / static_cast<double>(rows);
  stats.nan_fraction = static_cast<double>(nulls) / static_cast<double>(rows);
  stats.avg_cell_width = non_null > 0 ? width_sum / static_cast<double>(non_null) : 0.0;

  if (!numeric->empty()) {
    stats.has_numeric = true;
    std::sort(numeric->begin(), numeric->end());
    for (int i = 0; i < 9; ++i) {
      stats.percentiles[i] = Percentile(*numeric, 0.1 * (i + 1));
    }
    double sum = 0.0;
    for (double v : *numeric) sum += v;
    stats.mean = sum / static_cast<double>(numeric->size());
    double var = 0.0;
    for (double v : *numeric) var += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(var / static_cast<double>(numeric->size()));
    stats.min = numeric->front();
    stats.max = numeric->back();
  }
  return stats;
}

}  // namespace tsfm
