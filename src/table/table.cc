#include "table/table.h"

#include "util/logging.h"

namespace tsfm {

void Table::AddColumn(std::string name, std::vector<std::string> cells) {
  Column c;
  c.name = std::move(name);
  c.cells = std::move(cells);
  columns_.push_back(std::move(c));
}

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Table::RowString(size_t row) const {
  std::string out;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out.push_back(' ');
    out += columns_[c].cells[row];
  }
  return out;
}

ColumnType InferColumnType(const std::vector<std::string>& cells, size_t probe) {
  size_t seen = 0;
  size_t as_date = 0, as_int = 0, as_float = 0;
  for (const auto& cell : cells) {
    if (seen >= probe) break;
    if (IsNullToken(cell)) continue;
    ++seen;
    const bool is_int = ParseInt(cell).has_value();
    if (!is_int && ParseDateToDays(cell)) ++as_date;
    if (is_int) ++as_int;
    if (ParseFloat(cell)) ++as_float;
  }
  if (seen == 0) return ColumnType::kString;
  // Best-effort rule from the paper: all probed values must agree on a type;
  // otherwise fall back to string. Date wins over numeric formats because a
  // date string never parses as int/float in full.
  if (as_date == seen) return ColumnType::kDate;
  if (as_int == seen) return ColumnType::kInteger;
  if (as_float == seen) return ColumnType::kFloat;
  return ColumnType::kString;
}

void Table::InferTypes(size_t probe) {
  for (auto& col : columns_) {
    col.type = InferColumnType(col.cells, probe);
  }
}

Table Table::WithColumnOrder(const std::vector<size_t>& perm) const {
  Table out(id_, description_);
  for (size_t p : perm) {
    TSFM_CHECK_LT(p, columns_.size());
    out.AddColumn(columns_[p]);
  }
  return out;
}

Table Table::WithRowOrder(const std::vector<size_t>& perm) const {
  Table out(id_, description_);
  for (const auto& col : columns_) {
    Column c;
    c.name = col.name;
    c.type = col.type;
    c.cells.reserve(perm.size());
    for (size_t p : perm) {
      TSFM_CHECK_LT(p, col.cells.size());
      c.cells.push_back(col.cells[p]);
    }
    out.AddColumn(std::move(c));
  }
  return out;
}

Table Table::Slice(const std::vector<size_t>& row_idx,
                   const std::vector<size_t>& col_idx) const {
  Table out(id_, description_);
  for (size_t ci : col_idx) {
    TSFM_CHECK_LT(ci, columns_.size());
    const Column& src = columns_[ci];
    Column c;
    c.name = src.name;
    c.type = src.type;
    c.cells.reserve(row_idx.size());
    for (size_t ri : row_idx) {
      TSFM_CHECK_LT(ri, src.cells.size());
      c.cells.push_back(src.cells[ri]);
    }
    out.AddColumn(std::move(c));
  }
  return out;
}

bool Table::Validate() const {
  if (columns_.empty()) return true;
  size_t rows = columns_[0].cells.size();
  for (const auto& col : columns_) {
    if (col.cells.size() != rows) return false;
  }
  return true;
}

}  // namespace tsfm
