// Column statistics feeding the numerical sketch (paper Sec III-A).
#ifndef TSFM_TABLE_STATS_H_
#define TSFM_TABLE_STATS_H_

#include <cstddef>
#include <vector>

#include "table/table.h"

namespace tsfm {

/// \brief Statistical profile of one column.
///
/// The fields mirror the paper's numerical sketch layout: unique and NaN
/// counts normalized by row count, average cell width in bytes, and for
/// numeric/date columns the deciles, mean, standard deviation, min and max.
struct ColumnStats {
  double unique_fraction = 0.0;   ///< distinct values / rows
  double nan_fraction = 0.0;      ///< null cells / rows
  double avg_cell_width = 0.0;    ///< mean byte length of non-null cells
  bool has_numeric = false;       ///< numeric stats below are meaningful
  double percentiles[9] = {0};    ///< p10..p90
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes statistics for `column` (its `type` decides numeric handling).
ColumnStats ComputeColumnStats(const Column& column);

/// \brief Statistics from the tallies of one walk over a column.
///
/// `rows` cells of which `nulls` are null; `distinct` distinct non-null
/// cells; `width_sum` bytes over the non-null cells; `numeric` the parsed
/// values of the non-null cells in cell order (sorted in place). Both
/// ComputeColumnStats and the table sketcher finish through this.
ColumnStats SummarizeColumn(size_t rows, size_t distinct, size_t nulls,
                            double width_sum, std::vector<double>* numeric);

/// Linear-interpolated percentile of sorted data, q in [0, 1].
double Percentile(const std::vector<double>& sorted, double q);

}  // namespace tsfm

#endif  // TSFM_TABLE_STATS_H_
