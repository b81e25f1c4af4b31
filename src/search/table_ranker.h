// The paper's Fig 6 column-based table ranking:
//   KNNSEARCH(c, k)          -> (k*3) nearest columns by distance
//   COLUMNNEARTABLES(c, k)   -> tables of those columns with min distance
//   NEARTABLES(t)            -> union over t's columns
//   RANK1 = number of matched query columns (descending)
//   RANK2 = sum of column distances (ascending tie-break)
//
// The corpus sits behind a pluggable VectorIndex (exact flat scan or HNSW);
// the batch search fans independent queries out over a ThreadPool. The
// ranking itself is a set of static functions over hit lists, so every
// query path (ShardedLakeIndex, DistributedLakeIndex) ranks through the
// exact same code.
#ifndef TSFM_SEARCH_TABLE_RANKER_H_
#define TSFM_SEARCH_TABLE_RANKER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "search/vector_index.h"

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
/// Two halves, both static: a k-way merge of pre-sorted per-shard hit
/// lists and the RANK1/RANK2 aggregation over hit lists — so
/// ShardedLakeIndex can scatter the search across shards and gather
/// through the exact same ranking code. Callers over-retrieve k*3
/// candidate columns per query column, as in the paper.
class TableRanker {
 public:
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
