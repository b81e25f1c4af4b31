// End-to-end search evaluation: index a corpus of column embeddings, run
// every benchmark query, and score against gold (paper Sec IV-C).
#ifndef TSFM_SEARCH_PIPELINE_H_
#define TSFM_SEARCH_PIPELINE_H_

#include <functional>
#include <vector>

#include "lakebench/search_benchmarks.h"
#include "search/metrics.h"
#include "search/table_ranker.h"

namespace tsfm::search {

/// Produces the column embeddings of corpus table `i`.
/// Must return one vector per column, all of equal dimension.
using ColumnEmbedFn =
    std::function<std::vector<std::vector<float>>(size_t table_index)>;

/// \brief Knobs for a search evaluation run.
struct SearchRunOptions {
  IndexOptions index;      ///< ANN backend for the column index
  size_t num_threads = 0;  ///< query fan-out width; 0 = hardware concurrency
  /// Shard count of the ShardedLakeIndex the corpus is indexed in (0 is
  /// treated as 1). Flat-backend results are identical at any count.
  size_t shards = 1;
};

/// \brief Runs a full search evaluation for one embedding method.
///
/// For join queries (column_index >= 0) tables are ranked by nearest column
/// to the query column; for union/subset queries the Fig 6 multi-column
/// ranking is used. All queries are answered through the batch ranking API,
/// fanned out over a ThreadPool. Returns ranked lists, one per query.
std::vector<std::vector<size_t>> RunSearch(const lakebench::SearchBenchmark& bench,
                                           const ColumnEmbedFn& embed, size_t k,
                                           const SearchRunOptions& options = {});

/// Convenience: RunSearch + EvaluateSearch.
SearchReport EvaluateEmbeddingSearch(const lakebench::SearchBenchmark& bench,
                                     const ColumnEmbedFn& embed, size_t k_max,
                                     const SearchRunOptions& options = {});

/// Evaluates pre-computed ranked lists (for non-embedding baselines such as
/// Josie or LSH-Forest).
SearchReport EvaluateRankedLists(const lakebench::SearchBenchmark& bench,
                                 const std::vector<std::vector<size_t>>& ranked,
                                 size_t k_max);

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_PIPELINE_H_
