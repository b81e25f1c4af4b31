#include "sketch/table_sketch.h"

#include <cctype>
#include <functional>
#include <string_view>
#include <unordered_set>

#include "util/hash.h"
#include "util/string_util.h"

namespace tsfm {

std::vector<float> ColumnSketch::MinHashInput() const {
  std::vector<float> cells = cell_minhash.ToFloats();
  std::vector<float> out;
  out.reserve(cells.size() * 2);
  out.insert(out.end(), cells.begin(), cells.end());
  if (type == ColumnType::kString) {
    std::vector<float> words = word_minhash.ToFloats();
    out.insert(out.end(), words.begin(), words.end());
  } else {
    // Non-string columns have no words signature; the paper includes only
    // the cell MinHash. We duplicate it so every column feeds the same
    // linear layer width.
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

std::vector<float> ColumnSketch::OneBitMinHashInput() const {
  auto one_bit = [](const MinHash& mh) {
    std::vector<float> out(mh.num_perm());
    for (size_t i = 0; i < mh.num_perm(); ++i) {
      out[i] = (SplitMix64(mh.signature()[i]) & 1) ? 1.0f : -1.0f;
    }
    return out;
  };
  std::vector<float> cells = one_bit(cell_minhash);
  std::vector<float> out;
  out.reserve(cells.size() * 2);
  out.insert(out.end(), cells.begin(), cells.end());
  if (type == ColumnType::kString) {
    std::vector<float> words = one_bit(word_minhash);
    out.insert(out.end(), words.begin(), words.end());
  } else {
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

std::vector<std::string> DistinctCells(const Column& column, size_t max_cells) {
  std::unordered_set<std::string_view> seen;
  std::vector<std::string> out;
  for (const auto& cell : column.cells) {
    if (out.size() >= max_cells) break;
    if (IsNullToken(cell)) continue;
    if (seen.insert(cell).second) out.push_back(cell);
  }
  return out;
}

namespace {

// Open-addressing set of the distinct non-null cells of one column, kept
// across columns: unlike a node-based set it allocates nothing per cell.
// A non-null cell is never empty, so an empty view marks a free slot.
class DistinctCellSet {
 public:
  // Empties the set and sizes it for a column of `cells` cells (load <= 1/2).
  void Reset(size_t cells) {
    size_t capacity = 8;
    while (capacity < 2 * cells) capacity *= 2;
    slots_.assign(capacity, std::string_view());
    size_ = 0;
  }

  // True when `cell` was not in the set yet.
  bool Insert(std::string_view cell) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = std::hash<std::string_view>{}(cell) & mask;;
         i = (i + 1) & mask) {
      if (slots_[i].empty()) {
        slots_[i] = cell;
        ++size_;
        return true;
      }
      if (slots_[i] == cell) return false;
    }
  }

  size_t size() const { return size_; }

 private:
  std::vector<std::string_view> slots_;
  size_t size_ = 0;
};

// Folds each whitespace-separated word of `cell`, lower-cased into the
// reused `word` buffer, into `minhash`. No dedupe: a signature slot is a
// minimum, so a repeated word never changes it.
void UpdateWords(std::string_view cell, std::string* word, MinHash* minhash) {
  auto space = [](char c) { return std::isspace(static_cast<unsigned char>(c)); };
  size_t i = 0;
  while (i < cell.size()) {
    while (i < cell.size() && space(cell[i])) ++i;
    word->clear();
    for (; i < cell.size() && !space(cell[i]); ++i) {
      word->push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(cell[i]))));
    }
    if (!word->empty()) minhash->Update(*word);
  }
}

}  // namespace

TableSketch BuildTableSketch(const Table& table, const SketchOptions& options) {
  TableSketch sketch;
  sketch.table_id = table.id();
  sketch.description = table.description();
  sketch.content_snapshot =
      MakeContentSnapshot(table, options.num_perm, options.snapshot_rows);

  // One walk per column. Reused across columns: the distinct non-null cells
  // (views into the column), one lower-cased word, the numeric values.
  DistinctCellSet distinct;
  std::string word;
  std::vector<double> numeric;
  sketch.columns.reserve(table.num_columns());
  for (const Column& col : table.columns()) {
    ColumnSketch& cs = sketch.columns.emplace_back();
    cs.name = col.name;
    cs.type = col.type;
    cs.cell_minhash = MinHash(options.num_perm);
    cs.word_minhash = MinHash(options.num_perm);
    const bool is_string = col.type == ColumnType::kString;
    distinct.Reset(col.cells.size());
    numeric.clear();
    size_t nulls = 0;
    double width_sum = 0.0;
    for (size_t r = 0; r < col.cells.size(); ++r) {
      const std::string& cell = col.cells[r];
      const std::string_view value = Trim(cell);
      if (IsNullToken(value)) {
        ++nulls;
        continue;
      }
      width_sum += static_cast<double>(cell.size());
      // The untrimmed cell is the distinct key; the first max_cells of them
      // are the cell signature's set (DistinctCells).
      if (distinct.Insert(cell) && distinct.size() <= options.max_cells) {
        cs.cell_minhash.Update(cell);
      }
      if (is_string) {
        // The word budget counts cells, null cells included.
        if (r < options.max_cells) UpdateWords(value, &word, &cs.word_minhash);
      } else if (auto v = NumericValue(value, col.type)) {
        numeric.push_back(*v);
      }
    }
    cs.numerical = MakeNumericalSketch(SummarizeColumn(
        col.cells.size(), distinct.size(), nulls, width_sum, &numeric));
  }
  return sketch;
}

}  // namespace tsfm
