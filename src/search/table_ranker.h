// The paper's Fig 6 column-based table ranking:
//   KNNSEARCH(c, k)          -> (k*3) nearest columns by distance
//   COLUMNNEARTABLES(c, k)   -> tables of those columns with min distance
//   NEARTABLES(t)            -> union over t's columns
//   RANK1 = number of matched query columns (descending)
//   RANK2 = sum of column distances (ascending tie-break)
//
// The corpus sits behind a pluggable VectorIndex (exact flat scan or HNSW).
// TableRanker::ScatterMergeRank is the one query core of every lake: a
// batch's columns go to each shard in one call of a per-shard searcher,
// the per-shard hit lists are k-way merged, and the Fig 6 rank runs on
// the merged lists. ShardedLakeIndex passes a searcher over its in-process
// shard segments, server::DistributedLakeIndex one that sends a shard
// worker one SHARD_QUERY frame per batch, so both deployments rank through
// the exact same code.
#ifndef TSFM_SEARCH_TABLE_RANKER_H_
#define TSFM_SEARCH_TABLE_RANKER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "search/vector_index.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

class Sq8Codec;

/// \brief A corpus of column embeddings grouped by table.
class ColumnEmbeddingIndex {
 public:
  explicit ColumnEmbeddingIndex(size_t dim, const IndexOptions& options = {});

  /// Adds every column embedding of table `table_id`.
  void AddTable(size_t table_id, const std::vector<std::vector<float>>& columns);

  /// Nearest (table_id, column, distance) entries for a column query.
  struct ColumnHit {
    size_t table_id;
    size_t column_index;
    float distance;
  };

  /// The `k` nearest column hits per query, sorted by (distance, table,
  /// column); fanned out over `pool` when given.
  std::vector<std::vector<ColumnHit>> SearchColumnsBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool = nullptr) const;

  size_t num_columns() const { return index_->size(); }
  size_t dim() const { return index_->dim(); }
  const IndexOptions& options() const { return options_; }

  /// \brief Installs a pre-trained SQ8 codec on an empty kSq8 flat index.
  ///
  /// How LakeIndex::Load re-arms a restored corpus with the persisted
  /// calibration before replaying AddTable. Check-fails unless the corpus
  /// is an empty kFlat/kSq8 index (see KnnIndex::SeedSq8Codec).
  void SeedSq8Codec(Sq8Codec codec);

  /// The trained SQ8 codec (calibrating first if needed), or nullptr when
  /// the corpus does not use kSq8 storage.
  const Sq8Codec* sq8_codec() const;

 private:
  IndexOptions options_;
  std::unique_ptr<VectorIndex> index_;
  std::vector<std::pair<size_t, size_t>> column_of_;  // payload -> (table, col)
};

/// \brief Fig 6 ranking of corpus tables for a query table.
///
/// All static: the scatter -> merge -> rank core every lake queries
/// through, and its parts — a k-way merge of pre-sorted per-shard hit
/// lists and the RANK1/RANK2 aggregation over hit lists. The core
/// over-retrieves k*3 candidate columns per query column, as in the paper.
class TableRanker {
 public:
  using HitLists = std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>;

  /// A lake's per-shard search: shard `shard`'s top-`m` hits for each of
  /// `columns`, each list sorted by (distance, table_id, column_index) with
  /// table_id a global handle. An error (naming the shard) fails the batch.
  using ShardSearcher = std::function<Result<HitLists>(
      size_t shard, const std::vector<std::vector<float>>& columns, size_t m)>;

  /// Scatter -> merge: one `search` call per shard for the whole batch
  /// (shards fanned out over `pool` when given), then MergeColumnHits per
  /// column. The lowest-index failing shard's Status fails the batch.
  static Result<HitLists> ScatterMerge(
      const std::vector<std::vector<float>>& columns, size_t m,
      size_t num_shards, const ShardSearcher& search, ThreadPool* pool);

  /// \brief Scatter -> merge -> Fig 6 rank: the query core of every lake.
  ///
  /// `Query` is a join column (`std::vector<float>`, ranked by
  /// RankFromSingleColumnHits) or a union query's columns
  /// (`std::vector<std::vector<float>>`, RankFromColumnHits). All columns
  /// of the batch share one ScatterMerge of k*3 hits each; a column's hits
  /// do not depend on the batch around it, so neither do the ranks.
  /// Returns ranked global handles; `excludes` pairs with `queries`
  /// (empty = none; SIZE_MAX excludes nothing).
  template <typename Query>
  static Result<std::vector<std::vector<size_t>>> ScatterMergeRank(
      const std::vector<Query>& queries, size_t k,
      const std::vector<size_t>& excludes, size_t num_shards,
      const ShardSearcher& search, ThreadPool* pool);

  /// \brief K-way heap merge of sorted candidate lists into the global top-k.
  ///
  /// Each input list must be sorted ascending by (distance, table_id,
  /// column_index) — the order SearchColumnsBatch produces. The result equals
  /// sorting the concatenation of all lists by that key and truncating to
  /// `k`, and is invariant to the order of the input lists as long as no
  /// (table_id, column_index) pair appears twice (shards partition columns,
  /// so per-shard lists never collide).
  static std::vector<ColumnEmbeddingIndex::ColumnHit> MergeColumnHits(
      const std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>& lists,
      size_t k);

  /// \brief Fig 6 RANK1/RANK2 aggregation over per-query-column hit lists.
  ///
  /// `per_column_hits[c]` holds the candidate columns retrieved for query
  /// column c (COLUMNNEARTABLES input). Tables are ranked by number of
  /// matched query columns (descending), then by summed min distance
  /// (ascending), then by table id. `exclude` is dropped.
  static std::vector<size_t> RankFromColumnHits(
      const std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>&
          per_column_hits,
      size_t exclude);

  /// Join variant of RankFromColumnHits: tables ranked by their closest
  /// column among `hits`, ties broken by table id.
  static std::vector<size_t> RankFromSingleColumnHits(
      const std::vector<ColumnEmbeddingIndex::ColumnHit>& hits, size_t exclude);
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_TABLE_RANKER_H_
