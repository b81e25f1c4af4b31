#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>

#include "lakebench/datagen.h"
#include "sketch/content_snapshot.h"
#include "sketch/minhash.h"
#include "sketch/minhash_lsh.h"
#include "sketch/numerical_sketch.h"
#include "sketch/simhash.h"
#include "sketch/table_sketch.h"
#include "table/csv.h"
#include "util/random.h"
#include "sketch_oracle.h"

namespace tsfm {
namespace {

std::vector<std::string> MakeSet(int start, int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) out.push_back("item_" + std::to_string(start + i));
  return out;
}

// ---------------------------------------------------------------- MinHash

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  auto s = MakeSet(0, 50);
  MinHash a = MinHashOfSet(s, 64);
  MinHash b = MinHashOfSet(s, 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
  EXPECT_EQ(a.HammingDistance(b), 0u);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  MinHash a = MinHashOfSet(MakeSet(0, 50), 64);
  MinHash b = MinHashOfSet(MakeSet(1000, 50), 64);
  EXPECT_LT(a.EstimateJaccard(b), 0.1);
}

TEST(MinHashTest, InsertionOrderIrrelevant) {
  auto s = MakeSet(0, 30);
  MinHash a(32), b(32);
  a.UpdateAll(s);
  std::reverse(s.begin(), s.end());
  b.UpdateAll(s);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(MinHashTest, DuplicatesDoNotChangeSignature) {
  MinHash a(32), b(32);
  a.UpdateAll({"x", "y"});
  b.UpdateAll({"x", "y", "x", "y", "x"});
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(MinHashTest, EmptySignatures) {
  MinHash a(16), b(16);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);  // both empty = both the empty set
  b.Update("x");
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 0.0);
}

TEST(MinHashTest, MergeEqualsUnion) {
  auto s1 = MakeSet(0, 30);
  auto s2 = MakeSet(20, 30);  // overlap 10
  MinHash a = MinHashOfSet(s1, 64);
  a.Merge(MinHashOfSet(s2, 64));
  std::vector<std::string> u = s1;
  u.insert(u.end(), s2.begin(), s2.end());
  MinHash direct = MinHashOfSet(u, 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(direct), 1.0);
}

TEST(MinHashTest, ToFloatsInUnitRange) {
  MinHash a = MinHashOfSet(MakeSet(0, 10), 16);
  auto f = a.ToFloats();
  ASSERT_EQ(f.size(), 16u);
  for (float v : f) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

// Property sweep: estimation error bounded by ~3/sqrt(K) across overlap
// levels (standard MinHash variance bound, 3 sigma).
class MinHashAccuracyTest : public testing::TestWithParam<int> {};

TEST_P(MinHashAccuracyTest, EstimatesTrueJaccard) {
  const int overlap = GetParam();
  const int n = 200;
  auto a_set = MakeSet(0, n);
  auto b_set = MakeSet(n - overlap, n);  // |A ∩ B| = overlap
  double true_jaccard = static_cast<double>(overlap) / (2 * n - overlap);
  const size_t num_perm = 256;
  MinHash a = MinHashOfSet(a_set, num_perm);
  MinHash b = MinHashOfSet(b_set, num_perm);
  double bound = 3.0 / std::sqrt(static_cast<double>(num_perm));
  EXPECT_NEAR(a.EstimateJaccard(b), true_jaccard, bound);
}

INSTANTIATE_TEST_SUITE_P(OverlapLevels, MinHashAccuracyTest,
                         testing::Values(0, 20, 50, 100, 150, 180, 200));

// ------------------------------------------------------- Numerical sketch

TEST(NumericalSketchTest, CompressStatMonotoneAndSigned) {
  EXPECT_LT(CompressStat(10), CompressStat(100));
  EXPECT_FLOAT_EQ(CompressStat(0), 0.0f);
  EXPECT_FLOAT_EQ(CompressStat(-5), -CompressStat(5));
}

TEST(NumericalSketchTest, LayoutMatchesPaper) {
  Column col;
  col.name = "x";
  col.type = ColumnType::kInteger;
  col.cells = {"10", "20", "30", "40"};
  NumericalSketch s = MakeNumericalSketch(col);
  // Slot 0: unique fraction = 1.0 compressed.
  EXPECT_FLOAT_EQ(s.values[0], CompressStat(1.0));
  // Slot 14/15: min/max.
  EXPECT_FLOAT_EQ(s.values[14], CompressStat(10));
  EXPECT_FLOAT_EQ(s.values[15], CompressStat(40));
  // Percentiles are non-decreasing.
  for (int i = 4; i <= 11; ++i) {
    EXPECT_GE(s.values[i], s.values[i - 1]);
  }
}

TEST(NumericalSketchTest, StringColumnHasZeroNumericSlots) {
  Column col;
  col.name = "s";
  col.type = ColumnType::kString;
  col.cells = {"abc", "de"};
  NumericalSketch s = MakeNumericalSketch(col);
  for (int i = 3; i < 16; ++i) EXPECT_FLOAT_EQ(s.values[i], 0.0f);
  EXPECT_GT(s.values[2], 0.0f);  // width populated
}

TEST(NumericalSketchTest, DistinguishesShiftedDistributions) {
  Column a, b;
  a.type = b.type = ColumnType::kFloat;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    a.cells.push_back(std::to_string(rng.Normal(100, 10)));
    b.cells.push_back(std::to_string(rng.Normal(500, 10)));
  }
  NumericalSketch sa = MakeNumericalSketch(a);
  NumericalSketch sb = MakeNumericalSketch(b);
  EXPECT_GT(std::fabs(sa.values[12] - sb.values[12]), 0.5f);  // means differ
}

// -------------------------------------------------------- Content snapshot

TEST(ContentSnapshotTest, SubsetRowsOverlap) {
  Table t("t", "d");
  std::vector<std::string> col;
  for (int i = 0; i < 100; ++i) col.push_back("v" + std::to_string(i));
  t.AddColumn("c", col);

  Table sub = t.Slice({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0});
  MinHash full = MakeContentSnapshot(t, 128);
  MinHash subset = MakeContentSnapshot(sub, 128);
  // Subset of rows -> containment -> nonzero jaccard.
  EXPECT_GT(full.EstimateJaccard(subset), 0.02);
}

TEST(ContentSnapshotTest, RowOrderInvariant) {
  Table t("t", "d");
  t.AddColumn("c", {"a", "b", "c", "d"});
  Table shuffled = t.WithRowOrder({3, 1, 0, 2});
  MinHash a = MakeContentSnapshot(t, 64);
  MinHash b = MakeContentSnapshot(shuffled, 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(ContentSnapshotTest, ColumnOrderChangesSnapshot) {
  Table t("t", "d");
  t.AddColumn("c1", {"a", "b"});
  t.AddColumn("c2", {"x", "y"});
  Table reordered = t.WithColumnOrder({1, 0});
  MinHash a = MakeContentSnapshot(t, 64);
  MinHash b = MakeContentSnapshot(reordered, 64);
  EXPECT_LT(a.EstimateJaccard(b), 0.5);  // row strings differ
}

// ------------------------------------------------------------ TableSketch

TEST(TableSketchTest, BuildsAllColumnSketches) {
  Table t("t", "sales table");
  t.AddColumn("product", {"widget a", "widget b", "widget a"});
  t.AddColumn("units", {"10", "20", "30"});
  t.InferTypes();
  TableSketch s = BuildTableSketch(t);
  ASSERT_EQ(s.columns.size(), 2u);
  EXPECT_EQ(s.columns[0].type, ColumnType::kString);
  EXPECT_EQ(s.columns[1].type, ColumnType::kInteger);
  EXPECT_FALSE(s.columns[0].word_minhash.empty());
  EXPECT_TRUE(s.columns[1].word_minhash.empty());  // numeric: no word sketch
  EXPECT_FALSE(s.content_snapshot.empty());
}

TEST(TableSketchTest, MinHashInputWidthIsFixed) {
  Table t("t", "d");
  t.AddColumn("s", {"a", "b"});
  t.AddColumn("n", {"1", "2"});
  t.InferTypes();
  SketchOptions opt;
  opt.num_perm = 16;
  TableSketch s = BuildTableSketch(t, opt);
  EXPECT_EQ(s.columns[0].MinHashInput().size(), 32u);
  EXPECT_EQ(s.columns[1].MinHashInput().size(), 32u);
}

TEST(TableSketchTest, DistinctCellsSkipsNullsAndDupes) {
  Column col;
  col.cells = {"a", "", "a", "NaN", "b"};
  auto cells = DistinctCells(col);
  EXPECT_EQ(cells.size(), 2u);
}

TEST(TableSketchTest, WordSignatureLowercasesAndSplits) {
  Table t("t", "d");
  t.AddColumn("city", {"New York", "new jersey", "NEW\tyork"});
  TableSketch s = BuildTableSketch(t);
  EXPECT_EQ(s.columns[0].word_minhash.signature(),
            MinHashOfSet({"new", "york", "jersey"}).signature());
}

TEST(TableSketchTest, WordBudgetCountsNullCells) {
  // max_cells 2 covers cells 0 and 1: the null cell spends one of them.
  Table t("t", "d");
  t.AddColumn("w", {"NA", "alpha", "beta"});
  SketchOptions opt;
  opt.max_cells = 2;
  TableSketch s = BuildTableSketch(t, opt);
  EXPECT_EQ(s.columns[0].word_minhash.signature(),
            MinHashOfSet({"alpha"}, opt.num_perm).signature());
  // The cell signature's cap counts distinct non-null cells instead.
  EXPECT_EQ(s.columns[0].cell_minhash.signature(),
            MinHashOfSet({"alpha", "beta"}, opt.num_perm).signature());
}

// ------------------------------------------- One pass vs three-pass oracle

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

testing::AssertionResult SameMinHash(const MinHash& got, const MinHash& want) {
  if (got.empty() != want.empty()) {
    return testing::AssertionFailure() << "empty() " << got.empty() << " vs "
                                       << want.empty();
  }
  if (got.signature() != want.signature()) {
    return testing::AssertionFailure() << "signatures differ";
  }
  return testing::AssertionSuccess();
}

// Every signature slot, every empty() flag and every numerical-sketch
// float (by bit pattern, so -0.0 and NaN payloads count).
testing::AssertionResult SameSketch(const TableSketch& got, const TableSketch& want) {
  if (got.table_id != want.table_id || got.description != want.description) {
    return testing::AssertionFailure() << "table id or description";
  }
  if (auto r = SameMinHash(got.content_snapshot, want.content_snapshot); !r) {
    return testing::AssertionFailure() << "content snapshot: " << r.message();
  }
  if (got.columns.size() != want.columns.size()) {
    return testing::AssertionFailure() << "column count";
  }
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ColumnSketch& g = got.columns[c];
    const ColumnSketch& w = want.columns[c];
    if (g.name != w.name || g.type != w.type) {
      return testing::AssertionFailure() << "column " << c << ": name or type";
    }
    if (auto r = SameMinHash(g.cell_minhash, w.cell_minhash); !r) {
      return testing::AssertionFailure()
             << "column " << c << " cell signature: " << r.message();
    }
    if (auto r = SameMinHash(g.word_minhash, w.word_minhash); !r) {
      return testing::AssertionFailure()
             << "column " << c << " word signature: " << r.message();
    }
    for (size_t i = 0; i < kNumericalSketchDim; ++i) {
      if (FloatBits(g.numerical.values[i]) != FloatBits(w.numerical.values[i])) {
        return testing::AssertionFailure()
               << "column " << c << " numerical slot " << i << ": "
               << g.numerical.values[i] << " vs " << w.numerical.values[i];
      }
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult MatchesOracle(const Table& table,
                                       const SketchOptions& options) {
  auto r = SameSketch(BuildTableSketch(table, options),
                      oracle::BuildTableSketch(table, options));
  if (!r) {
    return r << " (table " << table.id() << ", num_perm " << options.num_perm
             << ", max_cells " << options.max_cells << ", snapshot_rows "
             << options.snapshot_rows << ")";
  }
  return r;
}

SketchOptions Options(size_t num_perm, size_t max_cells, size_t snapshot_rows) {
  SketchOptions options;
  options.num_perm = num_perm;
  options.max_cells = max_cells;
  options.snapshot_rows = snapshot_rows;
  return options;
}

TEST(SketchOracleTest, LakebenchTablesMatchThreePass) {
  lakebench::DomainCatalog catalog(7, 400);
  Rng rng(7);
  size_t columns = 0;
  for (size_t i = 0; i < 240; ++i) {
    const auto& domain =
        catalog.domain(rng.Uniform(static_cast<uint32_t>(catalog.size())));
    // Mostly the 32-row tables lake_search builds, some ragged sizes.
    const size_t rows = i % 4 == 0 ? rng.Uniform(160) : 32;
    Table table = lakebench::GenerateDomainTable(
        domain, "lake_" + std::to_string(i), rows, &rng);
    if (i % 2 == 1) {
      // The CSV path a query takes: write, parse back, infer.
      auto parsed = ParseCsv(WriteCsv(table));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      table = std::move(parsed).value();
    }
    table.InferTypes();
    columns += table.num_columns();
    ASSERT_TRUE(MatchesOracle(table, Options(16, 10000, 256)));
    ASSERT_TRUE(MatchesOracle(table, Options(32, 5, 8)));
    ASSERT_TRUE(MatchesOracle(table, Options(8, 1, 1)));
  }
  EXPECT_GT(columns, 1000u);
}

// Every case spelling of each null token.
std::vector<std::string> NullSpellings() {
  std::vector<std::string> out;
  for (std::string token : {"na", "nan", "null", "none", "n/a", "-"}) {
    for (uint32_t mask = 0; mask < (1u << token.size()); ++mask) {
      std::string spelled = token;
      for (size_t i = 0; i < token.size(); ++i) {
        if (mask & (1u << i)) {
          spelled[i] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(spelled[i])));
        }
      }
      if (std::find(out.begin(), out.end(), spelled) == out.end()) {
        out.push_back(spelled);
      }
    }
  }
  return out;
}

const std::vector<std::string>& WhitespaceRuns() {
  static const std::vector<std::string> runs = {
      "", " ", "\t", "\r\n", "\v\f", " \t\r\v\f ", "\f\f\v"};
  return runs;
}

// Hand-written hostile columns, each sketched under every type so the
// numeric parse sees garbage too.
std::vector<std::vector<std::string>> HostileColumns() {
  std::vector<std::vector<std::string>> cols;
  std::vector<std::string> nulls;
  const auto& ws = WhitespaceRuns();
  size_t w = 0;
  for (const auto& token : NullSpellings()) {
    nulls.push_back(ws[w % ws.size()] + token + ws[(w + 3) % ws.size()]);
    ++w;
  }
  nulls.push_back("");
  nulls.push_back(" \t\r\v\f\n ");
  cols.push_back(nulls);  // all null
  cols.push_back({"nulls", "nonee", "n/", "--", "n a", "- -", "N/A.", "nan!",
                  "NA", "", "nul", "non"});
  cols.push_back({"x", " x", "x ", "\tx\n", "x\v", "X", "x", "", " ",
                  "New York", "new\tyork", "  NEW   york ", "a\fb", "a\rb",
                  "new york", "New  York"});
  cols.push_back({"\xc3\x9c" "ber", "\xc3\xbc" "ber", "\xff", "\x80" "abc",
                  "\xc3\x80\xc3\x89 \xc3\x8e", "caf\xc3\xa9 CAF\xc3\x89", "\xa0x\xa0"});
  cols.push_back({"0", "-0", "+5", " 7 ", "007", "9223372036854775807",
                  "9223372036854775808", "-9223372036854775809", "1e3",
                  "0x1A", "1.5", "inf", "-inf", "NaN", "abc", "", "12a",
                  "1,000"});
  cols.push_back({"3.5", ".5", "5.", "-0.0", "1e308", "1e309", "-1e309",
                  "4.9e-324", "1e-400", "0x1p-3", "+.5", "INF", "Infinity",
                  "\t2.25\f", "1.5e", "--1"});
  cols.push_back({"-nan", "1", "2", "nan(7)", "3"});  // NaN in a short column
  cols.push_back({"2020-02-29", "2020-02-30", "2021-02-29", "02/03/2020",
                  "12-31-1999", "31-12-1999", "13/13/2020", "1999", "999",
                  "1000", "2999", "3000", " 2000-01-01 ", "2000-1-1",
                  "20200101", "2020/1/2", "1/2/3", "-1-1-1", "2020-01-01-",
                  "0001-01-01", "9999-12-31", "2020-1-2/3"});
  // A long numeric cell on each side of the parser's stack buffer.
  std::vector<std::string> longs;
  for (size_t len : {62, 63, 64, 65, 100}) {
    longs.push_back("1." + std::string(len - 2, '5'));
    longs.push_back(" " + std::string(len - 1, '7'));
  }
  cols.push_back(longs);
  cols.push_back({});  // zero rows
  return cols;
}

TEST(SketchOracleTest, HostileColumnsMatchThreePass) {
  const auto cols = HostileColumns();
  for (size_t c = 0; c < cols.size(); ++c) {
    for (ColumnType type : {ColumnType::kString, ColumnType::kInteger,
                            ColumnType::kFloat, ColumnType::kDate}) {
      Table table("hostile_" + std::to_string(c), "d");
      Column col;
      col.name = "c";
      col.type = type;
      col.cells = cols[c];
      table.AddColumn(col);
      for (size_t max_cells : {0, 1, 2, 3, 10000}) {
        ASSERT_TRUE(MatchesOracle(table, Options(16, max_cells, 256)))
            << "type " << ColumnTypeName(type);
      }
    }
  }
}

TEST(SketchOracleTest, DistinctValuesOverMaxCellsMatchThreePass) {
  // More distinct values than max_cells, with duplicates and nulls in
  // front of and among them, and the same value with and without spaces.
  Table table("cap", "d");
  table.AddColumn("s", {"NA", "b", "b", " b", "", "a", "c", "b ", "d", "a", "e"});
  table.AddColumn("n", {"-", "3", "3", " 3", "1", "2", "", "4", "5", "2", "6"});
  table.column(1).type = ColumnType::kInteger;
  for (size_t max_cells : {1, 2, 3}) {
    ASSERT_TRUE(MatchesOracle(table, Options(16, max_cells, 256)));
    ASSERT_TRUE(MatchesOracle(table, Options(1, max_cells, 2)));
  }
}

TEST(SketchOracleTest, RandomHostileTablesMatchThreePass) {
  // Cells glued from fragments that straddle every rule: null spellings,
  // whitespace of each kind, case, numbers, dates, high bytes.
  const std::vector<std::string> pieces = {
      "", " ", "\t", "\r", "\v", "\f", "\n", "na", "N/A", "-", "null",
      "NONE", "x", "X", "New", "york", "1", "2.5", "-3", "+4", "1e5",
      "2020-01-02", "03/04/2020", "1999", "\xc3\xa9", "\xff", "0x1p3", "inf"};
  const ColumnType types[] = {ColumnType::kString, ColumnType::kInteger,
                              ColumnType::kFloat, ColumnType::kDate};
  Rng rng(11);
  for (size_t t = 0; t < 300; ++t) {
    Table table("rand_" + std::to_string(t), "d");
    const size_t rows = rng.Uniform(40);
    const size_t ncols = 1 + rng.Uniform(4);
    for (size_t c = 0; c < ncols; ++c) {
      Column col;
      col.name = "c" + std::to_string(c);
      col.type = types[rng.Uniform(4)];
      for (size_t r = 0; r < rows; ++r) {
        std::string cell;
        const size_t n = rng.Uniform(4);
        for (size_t i = 0; i < n; ++i) cell += rng.Choice(pieces);
        col.cells.push_back(std::move(cell));
      }
      table.AddColumn(std::move(col));
    }
    if (t % 3 == 0) table.InferTypes();
    const size_t caps[] = {0, 1, 2, 3, 5, 10000};
    const size_t snapshots[] = {0, 1, 3, 256};
    ASSERT_TRUE(MatchesOracle(
        table, Options(1 + rng.Uniform(32), caps[rng.Uniform(6)],
                       snapshots[rng.Uniform(4)])));
  }
}

// ---------------------------------------------------------------- SimHash

TEST(SimHashTest, IdenticalVectorsSameCode) {
  SimHasher h(8, 32);
  std::vector<float> v = {1, -2, 3, 0.5, -1, 2, 0, 1};
  EXPECT_EQ(h.Hash(v), h.Hash(v));
  EXPECT_EQ(h.HammingDistance(h.Hash(v), h.Hash(v)), 0);
}

TEST(SimHashTest, SimilarVectorsCloserThanRandom) {
  SimHasher h(16, 64);
  Rng rng(2);
  std::vector<float> a(16), near(16), far(16);
  for (size_t i = 0; i < 16; ++i) {
    a[i] = static_cast<float>(rng.Normal());
    near[i] = a[i] + 0.05f * static_cast<float>(rng.Normal());
    far[i] = static_cast<float>(rng.Normal());
  }
  int d_near = h.HammingDistance(h.Hash(a), h.Hash(near));
  int d_far = h.HammingDistance(h.Hash(a), h.Hash(far));
  EXPECT_LT(d_near, d_far);
}

// ------------------------------------------------------------ MinHash LSH

TEST(MinHashLshTest, FindsNearDuplicates) {
  MinHashLsh lsh(64, 16);
  auto base = MakeSet(0, 100);
  lsh.Insert("dup", MinHashOfSet(base, 64));
  lsh.Insert("other", MinHashOfSet(MakeSet(5000, 100), 64));

  auto mostly_same = MakeSet(0, 95);  // jaccard 0.95
  auto hits = lsh.Query(MinHashOfSet(mostly_same, 64));
  EXPECT_NE(std::find(hits.begin(), hits.end(), "dup"), hits.end());
  EXPECT_EQ(std::find(hits.begin(), hits.end(), "other"), hits.end());
}

TEST(MinHashLshTest, SizeCounts) {
  MinHashLsh lsh(32, 8);
  EXPECT_EQ(lsh.size(), 0u);
  lsh.Insert("a", MinHashOfSet(MakeSet(0, 10), 32));
  EXPECT_EQ(lsh.size(), 1u);
}

TEST(LshForestTest, RanksHighOverlapFirst) {
  LshForest forest(64, 8, 8);
  auto q = MakeSet(0, 100);
  forest.Insert("high", MinHashOfSet(MakeSet(0, 110), 64));    // ~0.9
  forest.Insert("low", MinHashOfSet(MakeSet(80, 100), 64));    // ~0.1
  forest.Insert("none", MinHashOfSet(MakeSet(9000, 100), 64));

  auto hits = forest.Query(MinHashOfSet(q, 64), 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], "high");
}

TEST(LshForestTest, RespectsK) {
  LshForest forest(64, 4, 8);
  for (int i = 0; i < 20; ++i) {
    forest.Insert("t" + std::to_string(i), MinHashOfSet(MakeSet(0, 50), 64));
  }
  auto hits = forest.Query(MinHashOfSet(MakeSet(0, 50), 64), 5);
  EXPECT_LE(hits.size(), 5u);
}

}  // namespace
}  // namespace tsfm
