#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "sketch_oracle.h"
#include "table/csv.h"
#include "table/stats.h"
#include "table/table.h"
#include "table/value.h"
#include "util/random.h"

namespace tsfm {
namespace {

// ------------------------------------------------------------- Value parse

TEST(ValueTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 13 ").value(), 13);
  EXPECT_FALSE(ParseInt("12.5").has_value());
  EXPECT_FALSE(ParseInt("12a").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(ValueTest, ParseFloatStrict) {
  EXPECT_DOUBLE_EQ(ParseFloat("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseFloat("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(ParseFloat("1e3").value(), 1000.0);
  EXPECT_FALSE(ParseFloat("abc").has_value());
  EXPECT_FALSE(ParseFloat("1.2x").has_value());
}

TEST(ValueTest, ParseIsoDate) {
  // 1970-01-01 is day 0.
  EXPECT_EQ(ParseDateToDays("1970-01-01").value(), 0);
  EXPECT_EQ(ParseDateToDays("1970-01-02").value(), 1);
  EXPECT_EQ(ParseDateToDays("1969-12-31").value(), -1);
  // Known: 2000-03-01 is day 11017.
  EXPECT_EQ(ParseDateToDays("2000-03-01").value(), 11017);
}

TEST(ValueTest, ParseSlashDates) {
  EXPECT_EQ(ParseDateToDays("1970/01/02").value(), 1);
  // DD/MM/YYYY.
  EXPECT_EQ(ParseDateToDays("02/01/1970").value(), 1);
}

TEST(ValueTest, RejectsBadDates) {
  EXPECT_FALSE(ParseDateToDays("2020-13-01").has_value());
  EXPECT_FALSE(ParseDateToDays("2020-02-30").has_value());
  EXPECT_FALSE(ParseDateToDays("hello").has_value());
  EXPECT_FALSE(ParseDateToDays("1-2").has_value());
}

TEST(ValueTest, LeapYearHandling) {
  EXPECT_TRUE(ParseDateToDays("2020-02-29").has_value());
  EXPECT_FALSE(ParseDateToDays("2021-02-29").has_value());
  EXPECT_TRUE(ParseDateToDays("2000-02-29").has_value());   // div by 400
  EXPECT_FALSE(ParseDateToDays("1900-02-29").has_value());  // div by 100
}

TEST(ValueTest, NullTokens) {
  EXPECT_TRUE(IsNullToken(""));
  EXPECT_TRUE(IsNullToken("  "));
  EXPECT_TRUE(IsNullToken("NaN"));
  EXPECT_TRUE(IsNullToken("null"));
  EXPECT_TRUE(IsNullToken("N/A"));
  EXPECT_TRUE(IsNullToken("-"));
  EXPECT_FALSE(IsNullToken("0"));
  EXPECT_FALSE(IsNullToken("nothing"));
}

TEST(ValueTest, NullTokensInEveryCaseInsideWhitespaceRuns) {
  const std::vector<std::string> runs = {"", " ", "\t", "\r\n", "\v\f",
                                         " \t\r\v\f ", "\f\f\v\t"};
  size_t spellings = 0;
  for (std::string token : {"na", "nan", "null", "none", "n/a", "-"}) {
    for (uint32_t mask = 0; mask < (1u << token.size()); ++mask) {
      std::string spelled = token;
      for (size_t i = 0; i < token.size(); ++i) {
        if (mask & (1u << i)) {
          spelled[i] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(spelled[i])));
        }
      }
      ++spellings;
      for (const auto& before : runs) {
        for (const auto& after : runs) {
          EXPECT_TRUE(IsNullToken(before + spelled + after))
              << "[" << before << spelled << after << "]";
        }
      }
    }
  }
  EXPECT_EQ(spellings, 4u + 8 + 16 + 16 + 8 + 2);
  for (const auto& run : runs) EXPECT_TRUE(IsNullToken(run));
}

TEST(ValueTest, NullTokenNearMisses) {
  for (const char* s : {"nulls", "nonee", "n/", "--", "n a", "N A", "n\ta",
                        "- -", "nul", "non", "n", "a", "/", "na-", "-na",
                        "n/a/", "nan0", "0", "nana", "NULL.", "n//a", "_"}) {
    EXPECT_FALSE(IsNullToken(s)) << "[" << s << "]";
    EXPECT_FALSE(IsNullToken(std::string(" \t") + s + "\f ")) << "[" << s << "]";
  }
}

TEST(ValueTest, NullTokenHighBytes) {
  // Bytes >= 0x80 are neither whitespace nor letters to trim or fold: a
  // no-break space or a non-ASCII look-alike never makes a null.
  for (const char* s : {"\xff", "\x80", "\xa0", "\xa0na\xa0", "na\xc2\xa0",
                        "\xc2\xa0", "\xce\x9d\xce\x91", "n\xc3\xa1",
                        "\xe2\x80\x94", "\xcd" "a"}) {
    EXPECT_FALSE(IsNullToken(s)) << "[" << s << "]";
  }
}

// The numeric parsers must agree with the copying bodies they replaced
// (tests/sketch_oracle.h), value bits included.
std::vector<std::string> ParserCorpus() {
  std::vector<std::string> corpus = {
      "", " ", "1.5", "+1.5", "-0", "-0.0", ".5", "5.", "1e", "e5", "1e308",
      "1e309", "-1e309", "4.9e-324", "1e-400", "0x1p3", "0X1P-3", "0x1A",
      "0x", "inf", "-INF", "Infinity", "+inf", "nan", "-nan", "NAN(12)",
      "nan(", "1,5", "1.5.5", "--1", "+-1", "\t\r\v\f1.5\t\r\v\f",
      "1.5\n", std::string("1\0" "2", 3), std::string("\0", 1),
      // Dates: every separator shape, 8-digit parts, invalid days, the
      // MM-DD fallback, bare years around the accepted range.
      "2020-02-29", "2020-02-30", "2021-02-29", "1900-02-29", "2000-02-29",
      "02/03/2020", "12-31-1999", "31-12-1999", "13-13-2020", "02-30-2020",
      "12/31/1999", "1/2/3", "2020/1/2", "2020-1-2/3", "2020-01-01-",
      "-1-1-1", "1-2", "1--2", "20200101", "12345678-1", "1-12345678",
      "12345678", "0001-01-01", "9999-12-31", "0000-01-01", "999", "1000",
      "2999", "3000", "0999", " 1999 ", "\t1999\f", "\v2000-01-01\r",
      "2000-01-01 ", "2000- 01-01", "+200-1-1", "2000-01-1a"};
  // The strtod stack buffer's boundary, bare and padded.
  for (size_t len = 61; len <= 66; ++len) {
    corpus.push_back("1." + std::string(len - 2, '5'));
    corpus.push_back(std::string(len, '9'));
    corpus.push_back(" " + std::string(len - 2, '7') + "\t");
    corpus.push_back(std::string(len - 1, '1') + "x");
  }
  // Random decimals: long mantissas, far exponents, subnormals, overflow.
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    std::string d = rng.Uniform(4) == 0 ? "-" : "";
    const size_t digits = 1 + rng.Uniform(25);
    const size_t dot = rng.Uniform(static_cast<uint32_t>(digits + 2));
    for (size_t j = 0; j < digits; ++j) {
      if (j == dot) d += '.';
      d += static_cast<char>('0' + rng.Uniform(10));
    }
    if (rng.Uniform(2) == 0) {
      d += rng.Uniform(2) == 0 ? "e" : "E";
      if (rng.Uniform(3) == 0) d += rng.Uniform(2) == 0 ? "-" : "+";
      d += std::to_string(rng.Uniform(340));
    }
    corpus.push_back(d);
  }
  // Every string up to 4 bytes over an alphabet of digits and separators.
  const std::string alphabet = "019-/+.e x";
  std::vector<std::string> level = {""};
  for (int depth = 0; depth < 4; ++depth) {
    std::vector<std::string> next;
    for (const auto& prefix : level) {
      for (char ch : alphabet) next.push_back(prefix + ch);
    }
    corpus.insert(corpus.end(), next.begin(), next.end());
    level = std::move(next);
  }
  return corpus;
}

TEST(ValueTest, ParsersMatchCopyingBodies) {
  for (const auto& s : ParserCorpus()) {
    auto f = ParseFloat(s);
    auto want_f = oracle::ParseFloat(s);
    ASSERT_EQ(f.has_value(), want_f.has_value()) << "[" << s << "]";
    if (f) {
      EXPECT_EQ(std::memcmp(&*f, &*want_f, sizeof(double)), 0) << "[" << s << "]";
    }
    EXPECT_EQ(ParseDateToDays(s), oracle::ParseDateToDays(s)) << "[" << s << "]";
    EXPECT_EQ(IsNullToken(s), oracle::IsNullToken(s)) << "[" << s << "]";
  }
}

TEST(ValueTest, ParserBoundaryValues) {
  EXPECT_DOUBLE_EQ(ParseFloat("0x1p3").value(), 8.0);
  EXPECT_DOUBLE_EQ(ParseFloat("+1.5").value(), 1.5);
  EXPECT_TRUE(std::isinf(ParseFloat("-inf").value()));
  EXPECT_TRUE(std::isnan(ParseFloat("nan").value()));
  EXPECT_DOUBLE_EQ(ParseFloat(" 1." + std::string(62, '0') + " ").value(), 1.0);
  EXPECT_FALSE(ParseFloat(std::string(70, '1') + "x").has_value());
  EXPECT_EQ(ParseDateToDays("12-31-1999"), ParseDateToDays("1999-12-31"));
  EXPECT_EQ(ParseDateToDays("999"), std::nullopt);
  EXPECT_EQ(ParseDateToDays("1000"), ParseDateToDays("1000-01-01"));
  EXPECT_EQ(ParseDateToDays("2999"), ParseDateToDays("2999-01-01"));
  EXPECT_EQ(ParseDateToDays("3000"), std::nullopt);
}

TEST(ValueTest, NumericValueByType) {
  EXPECT_DOUBLE_EQ(NumericValue("42", ColumnType::kInteger).value(), 42.0);
  EXPECT_DOUBLE_EQ(NumericValue("2.5", ColumnType::kFloat).value(), 2.5);
  EXPECT_DOUBLE_EQ(NumericValue("1970-01-02", ColumnType::kDate).value(), 1.0);
  EXPECT_FALSE(NumericValue("abc", ColumnType::kString).has_value());
  EXPECT_FALSE(NumericValue("", ColumnType::kFloat).has_value());
}

// -------------------------------------------------------- Type inference

TEST(TypeInferenceTest, DetectsEachType) {
  EXPECT_EQ(InferColumnType({"1", "2", "3"}), ColumnType::kInteger);
  EXPECT_EQ(InferColumnType({"1.5", "2.25"}), ColumnType::kFloat);
  EXPECT_EQ(InferColumnType({"2020-01-01", "2021-06-15"}), ColumnType::kDate);
  EXPECT_EQ(InferColumnType({"apple", "pear"}), ColumnType::kString);
}

TEST(TypeInferenceTest, IntegersParseAsFloatButPreferInt) {
  EXPECT_EQ(InferColumnType({"10", "20"}), ColumnType::kInteger);
}

TEST(TypeInferenceTest, MixedFallsBackToString) {
  EXPECT_EQ(InferColumnType({"1", "apple"}), ColumnType::kString);
}

TEST(TypeInferenceTest, NullsAreSkipped) {
  EXPECT_EQ(InferColumnType({"", "NaN", "7", "8"}), ColumnType::kInteger);
  EXPECT_EQ(InferColumnType({"", ""}), ColumnType::kString);
}

TEST(TypeInferenceTest, ProbesOnlyFirstValues) {
  // First 10 are ints; an 11th bad value must not change the verdict.
  std::vector<std::string> cells;
  for (int i = 0; i < 10; ++i) cells.push_back(std::to_string(i));
  cells.push_back("oops");
  EXPECT_EQ(InferColumnType(cells, 10), ColumnType::kInteger);
}

// ------------------------------------------------------------------ Table

Table MakeToyTable() {
  Table t("toy", "a toy table");
  t.AddColumn("name", {"ann", "bob", "cy"});
  t.AddColumn("age", {"34", "28", "45"});
  t.AddColumn("city", {"oslo", "rome", "kiev"});
  t.InferTypes();
  return t;
}

TEST(TableTest, BasicAccessors) {
  Table t = MakeToyTable();
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.cell(1, 0), "bob");
  EXPECT_EQ(t.ColumnIndex("age"), 1);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(t.column(1).type, ColumnType::kInteger);
}

TEST(TableTest, RowString) {
  Table t = MakeToyTable();
  EXPECT_EQ(t.RowString(0), "ann 34 oslo");
}

TEST(TableTest, ColumnReorderIsContentPreserving) {
  Table t = MakeToyTable();
  Table r = t.WithColumnOrder({2, 0, 1});
  EXPECT_EQ(r.column(0).name, "city");
  EXPECT_EQ(r.column(1).name, "name");
  EXPECT_EQ(r.cell(0, 0), "oslo");
  EXPECT_EQ(r.num_rows(), 3u);
}

TEST(TableTest, RowReorder) {
  Table t = MakeToyTable();
  Table r = t.WithRowOrder({2, 1, 0});
  EXPECT_EQ(r.cell(0, 0), "cy");
  EXPECT_EQ(r.cell(2, 0), "ann");
}

TEST(TableTest, SliceRowsAndColumns) {
  Table t = MakeToyTable();
  Table s = t.Slice({0, 2}, {1});
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.num_columns(), 1u);
  EXPECT_EQ(s.column(0).name, "age");
  EXPECT_EQ(s.cell(1, 0), "45");
}

TEST(TableTest, ValidateCatchesRaggedColumns) {
  Table t;
  t.AddColumn("a", {"1", "2"});
  t.AddColumn("b", {"1"});
  EXPECT_FALSE(t.Validate());
}

// ------------------------------------------------------------------ Stats

TEST(StatsTest, PercentileInterpolation) {
  std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(StatsTest, NumericColumnStats) {
  Column col;
  col.name = "x";
  col.type = ColumnType::kInteger;
  col.cells = {"1", "2", "3", "4", ""};
  ColumnStats s = ComputeColumnStats(col);
  EXPECT_TRUE(s.has_numeric);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.nan_fraction, 0.2, 1e-9);
  EXPECT_NEAR(s.unique_fraction, 0.8, 1e-9);
}

TEST(StatsTest, StringColumnStats) {
  Column col;
  col.name = "s";
  col.type = ColumnType::kString;
  col.cells = {"aa", "bbbb", "aa"};
  ColumnStats s = ComputeColumnStats(col);
  EXPECT_FALSE(s.has_numeric);
  EXPECT_NEAR(s.avg_cell_width, (2 + 4 + 2) / 3.0, 1e-9);
  EXPECT_NEAR(s.unique_fraction, 2.0 / 3.0, 1e-9);
}

TEST(StatsTest, EmptyColumn) {
  Column col;
  ColumnStats s = ComputeColumnStats(col);
  EXPECT_DOUBLE_EQ(s.unique_fraction, 0.0);
  EXPECT_FALSE(s.has_numeric);
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, ParsesSimple) {
  auto r = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  const Table& t = r.value();
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.cell(1, 1), "y");
  EXPECT_EQ(t.column(0).type, ColumnType::kInteger);
}

TEST(CsvTest, QuotedFieldsWithDelimsAndNewlines) {
  auto r = ParseCsv("a,b\n\"x,1\",\"line\nbreak\"\n\"he said \"\"hi\"\"\",z\n");
  ASSERT_TRUE(r.ok());
  const Table& t = r.value();
  EXPECT_EQ(t.cell(0, 0), "x,1");
  EXPECT_EQ(t.cell(0, 1), "line\nbreak");
  EXPECT_EQ(t.cell(1, 0), "he said \"hi\"");
}

TEST(CsvTest, ShortRowsPadded) {
  auto r = ParseCsv("a,b,c\n1,2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cell(0, 2), "");
}

TEST(CsvTest, LongRowIsError) {
  auto r = ParseCsv("a,b\n1,2,3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto r = ParseCsv("a,b\n\"oops,2\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, EmptyInputIsError) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(CsvTest, RoundTrip) {
  Table t("t", "d");
  t.AddColumn("col,1", {"a\"b", "plain"});
  t.AddColumn("col2", {"multi\nline", "x,y"});
  std::string csv = WriteCsv(t);
  auto r = ParseCsv(csv);
  ASSERT_TRUE(r.ok());
  const Table& u = r.value();
  EXPECT_EQ(u.column(0).name, "col,1");
  EXPECT_EQ(u.cell(0, 0), "a\"b");
  EXPECT_EQ(u.cell(0, 1), "multi\nline");
  EXPECT_EQ(u.cell(1, 1), "x,y");
}

TEST(CsvTest, CrLfHandled) {
  auto r = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cell(0, 1), "2");
}

TEST(CsvTest, FileRoundTrip) {
  Table t("t", "d");
  t.AddColumn("x", {"1", "2"});
  std::string path = testing::TempDir() + "/tsfm_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto r = ReadCsvFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 2u);
  EXPECT_FALSE(ReadCsvFile("/nonexistent/nope.csv").ok());
}

}  // namespace
}  // namespace tsfm
