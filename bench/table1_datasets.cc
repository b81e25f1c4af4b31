// Regenerates paper Table I: cardinality and type statistics of every
// LakeBench-style fine-tuning benchmark plus the two generated search
// benchmarks (Eurostat subset, Wiki join).
#include <cstdio>
#include <map>

#include "bench_common.h"

namespace tsfm::bench {
namespace {

struct TypeDist {
  double pct[4] = {0, 0, 0, 0};  // string, int, float, date
};

TypeDist TypeDistribution(const std::vector<Table>& tables) {
  TypeDist dist;
  size_t total = 0;
  for (const auto& t : tables) {
    for (const auto& c : t.columns()) {
      ++dist.pct[static_cast<int>(c.type) - 1];
      ++total;
    }
  }
  if (total > 0) {
    for (double& p : dist.pct) p = 100.0 * p / static_cast<double>(total);
  }
  return dist;
}

void PrintDatasetRow(const std::string& name, const std::string& task,
                     const std::vector<Table>& tables, size_t train, size_t test,
                     size_t val) {
  double rows = 0, cols = 0;
  for (const auto& t : tables) {
    rows += static_cast<double>(t.num_rows());
    cols += static_cast<double>(t.num_columns());
  }
  rows /= static_cast<double>(tables.size());
  cols /= static_cast<double>(tables.size());
  TypeDist dist = TypeDistribution(tables);
  std::printf(
      "%-18s %-24s %7zu %9.1f %8.1f %8zu %7zu %7zu   %5.1f %5.1f %5.1f %5.1f\n",
      name.c_str(), task.c_str(), tables.size(), rows, cols, train, test, val,
      dist.pct[0], dist.pct[1], dist.pct[2], dist.pct[3]);
}

void Run() {
  PrintHeader("Table I: dataset cardinalities (repo scale; paper uses full lakes)");
  std::printf(
      "%-18s %-24s %7s %9s %8s %8s %7s %7s   %5s %5s %5s %5s\n", "Benchmark", "Task",
      "#Tables", "AvgRows", "AvgCols", "Train", "Test", "Valid", "Str%", "Int%",
      "Flt%", "Date%");

  lakebench::DomainCatalog catalog(42, 200);
  lakebench::BenchScale scale;
  scale.num_pairs = 160;
  scale.rows = 48;

  auto all = lakebench::MakeAllFinetuneBenchmarks(catalog, scale, 42);
  const char* tasks[] = {"Binary Classification", "Binary Classification",
                         "Regression",            "Regression",
                         "Regression",            "Binary Classification",
                         "Multi-label Class.",    "Binary Classification"};
  for (size_t i = 0; i < all.size(); ++i) {
    PrintDatasetRow(all[i].name, tasks[i], all[i].tables, all[i].train.size(),
                    all[i].test.size(), all[i].val.size());
  }

  lakebench::EurostatScale escale;
  escale.num_seeds = 40;
  auto eurostat = lakebench::MakeEurostatSubsetSearch(catalog, escale, 43);
  PrintDatasetRow("Eurostat Subset", "Search", eurostat.tables, 0, 0, 0);

  lakebench::WikiJoinScale wscale;
  auto wikijoin = lakebench::MakeWikiJoinSearch(wscale, 44);
  PrintDatasetRow("Wikijoin", "Search", wikijoin.tables, 0, 0, 0);

  std::printf(
      "\nPaper reference (Table I): TUS-SANTOS 1127 tables / 77.9%% string; "
      "CKAN Subset 36545 tables / 46.1%% float;\n"
      "Eurostat Subset 38904 tables / 64.6%% string; Wikijoin 46521 tables. "
      "The repo regenerates the same task mix, split scheme\n"
      "and type skew at laptop scale (see \"Scale substitutions\" in "
      "docs/architecture.md).\n");
}

}  // namespace
}  // namespace tsfm::bench

int main() {
  tsfm::bench::Run();
  return 0;
}
