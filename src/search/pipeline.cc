#include "search/pipeline.h"

#include <algorithm>
#include <string>
#include <thread>

#include "search/sharded_lake_index.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {

std::vector<std::vector<size_t>> RunSearch(const lakebench::SearchBenchmark& bench,
                                           const ColumnEmbedFn& embed, size_t k,
                                           const SearchRunOptions& options) {
  // Embed the whole corpus once. The embed callback may share model state,
  // so embedding stays serial; ranking below is what fans out.
  std::vector<std::vector<std::vector<float>>> all_columns(bench.tables.size());
  size_t dim = 0;
  for (size_t t = 0; t < bench.tables.size(); ++t) {
    all_columns[t] = embed(t);
    for (const auto& col : all_columns[t]) {
      if (dim == 0) dim = col.size();
      TSFM_CHECK_EQ(col.size(), dim);
    }
  }
  TSFM_CHECK_GT(dim, 0u);

  // Split the query mix into join (single-column) and union/subset
  // (multi-column) batches, answer each batch in parallel, then stitch the
  // results back into query order.
  std::vector<std::vector<float>> join_queries;
  std::vector<size_t> join_excludes, join_slots;
  std::vector<std::vector<std::vector<float>>> union_queries;
  std::vector<size_t> union_excludes, union_slots;
  for (size_t q = 0; q < bench.queries.size(); ++q) {
    const auto& query = bench.queries[q];
    const auto& qcols = all_columns[query.table_index];
    if (query.column_index >= 0) {
      TSFM_CHECK_LT(static_cast<size_t>(query.column_index), qcols.size());
      join_queries.push_back(qcols[static_cast<size_t>(query.column_index)]);
      join_excludes.push_back(query.table_index);
      join_slots.push_back(q);
    } else {
      union_queries.push_back(qcols);
      union_excludes.push_back(query.table_index);
      union_slots.push_back(q);
    }
  }

  size_t threads = options.num_threads != 0
                       ? options.num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(threads);

  std::vector<std::vector<size_t>> ranked(bench.queries.size());
  // Table handles are assigned in insertion order, so the global handle of
  // table t is t and the exclude ids carry over. One shard is a 1-shard lake.
  ShardedLakeIndex lake(dim, std::max<size_t>(1, options.shards), options.index);
  for (size_t t = 0; t < bench.tables.size(); ++t) {
    lake.AddTable(std::to_string(t), all_columns[t]);
  }
  auto join_ranked = lake.RankJoinableBatch(join_queries, k, join_excludes, &pool);
  auto union_ranked =
      lake.RankUnionableBatch(union_queries, k, union_excludes, &pool);
  for (size_t i = 0; i < join_slots.size(); ++i) {
    ranked[join_slots[i]] = std::move(join_ranked[i]);
  }
  for (size_t i = 0; i < union_slots.size(); ++i) {
    ranked[union_slots[i]] = std::move(union_ranked[i]);
  }
  return ranked;
}

SearchReport EvaluateEmbeddingSearch(const lakebench::SearchBenchmark& bench,
                                     const ColumnEmbedFn& embed, size_t k_max,
                                     const SearchRunOptions& options) {
  return EvaluateSearch(RunSearch(bench, embed, k_max, options), bench.gold, k_max);
}

SearchReport EvaluateRankedLists(const lakebench::SearchBenchmark& bench,
                                 const std::vector<std::vector<size_t>>& ranked,
                                 size_t k_max) {
  return EvaluateSearch(ranked, bench.gold, k_max);
}

}  // namespace tsfm::search
