#include "sketch/content_snapshot.h"

#include <algorithm>
#include <string>

namespace tsfm {

MinHash MakeContentSnapshot(const Table& table, size_t num_perm, size_t max_rows) {
  MinHash mh(num_perm);
  const size_t rows = std::min(table.num_rows(), max_rows);
  // Table::RowString's rendering, joined into one reused buffer.
  std::string row;
  for (size_t r = 0; r < rows; ++r) {
    row.clear();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) row.push_back(' ');
      row += table.column(c).cells[r];
    }
    mh.Update(row);
  }
  return mh;
}

}  // namespace tsfm
