// One shard segment of a persistent data-lake index — the paper's
// recommended deployment (Sec V): embed and index the lake offline; at query time embed only the query
// table and search in embedding space.
//
// The ANN backend (exact flat scan or HNSW) is chosen at construction and
// recorded in the on-disk format, so the online half reopens the index with
// the same behaviour the offline half built it with.
//
// Mutability (ROADMAP "Mutable lakes"): a lake is built in two phases.
// Before Seal(), AddTable appends straight into the base segment — the
// offline bulk build, byte-identical to what this class always did. After
// Seal() (Load seals automatically: a loaded lake is a serving artifact),
// AddTable appends to a small float32 *delta segment* scanned exactly, and
// RemoveTable only marks a *tombstone* — queries filter tombstoned hits
// and merge base + delta candidates, so mutations are visible immediately
// without touching the base storage (whose SQ8 calibration or HNSW graph
// would otherwise degrade under incremental writes). BuildCompacted()
// folds deltas + tombstones into a fresh base; the churn-parity contract is
// that a compacted lake ranks bit-identically (flat backends) to the same
// surviving tables added from scratch in their original order.
//
// Concurrency: none. A LakeIndex is one shard segment of a
// ShardedLakeIndex (the only lake type with a lifecycle and locks), which
// mutates it only under its exclusive lock and reads it under its shared
// lock. Used on its own — the LAK2 file codec, tests — it is a plain,
// single-threaded value.
#ifndef TSFM_SEARCH_LAKE_INDEX_H_
#define TSFM_SEARCH_LAKE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/embedder.h"
#include "search/table_ranker.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

/// Maps ranked table handles to their string ids, truncated to `k`.
/// Shared by ShardedLakeIndex and DistributedLakeIndex so the two query
/// surfaces cannot drift.
std::vector<std::string> RankedTableIds(const std::vector<std::string>& table_ids,
                                        const std::vector<size_t>& handles,
                                        size_t k);

/// \brief One shard segment of a lake: column embeddings for a set of
/// tables, with the seal/delta/tombstone lifecycle and the LAK2 file codec.
///
/// Not thread-safe: ShardedLakeIndex guards every shard with its one lock
/// domain (mutations under its exclusive lock, reads under its shared
/// lock) and is the query surface; this type only answers the raw
/// SearchColumnsBatch that its scatter step fans out.
class LakeIndex {
 public:
  explicit LakeIndex(size_t dim, const IndexOptions& options = {});

  LakeIndex(LakeIndex&&) noexcept = default;
  LakeIndex& operator=(LakeIndex&&) noexcept = default;

  /// Registers a table's column embeddings under a stable string id.
  /// Returns the table's dense index handle. Before Seal() the table joins
  /// the base segment; after, the delta segment.
  size_t AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& column_embeddings);

  /// \brief Tombstones the most recently added live table named `table_id`.
  ///
  /// The handle stays allocated (handles are never reused between
  /// compactions) but the table vanishes from every search immediately.
  /// kNotFound when no live table has that id.
  Status RemoveTable(const std::string& table_id);

  /// \brief Ends the bulk-build phase: later AddTable calls go to the
  /// delta segment. Idempotent; Load() and BuildCompacted() seal.
  void Seal() { sealed_ = true; }

  /// \brief A full from-scratch compaction image plus the old->new handle
  /// remap (SIZE_MAX for tombstoned handles).
  ///
  /// Survivors are re-added in insertion order — for sq8 that retrains the
  /// codec over exactly the rows a from-scratch build would see, and for
  /// HNSW it rebuilds the graph — which is what makes post-compaction flat
  /// rankings bit-identical to a rebuild. ShardedLakeIndex::Compact builds
  /// these for every churned shard and swaps them in together with its
  /// global handle maps. Defined after the class (it holds a LakeIndex by
  /// value).
  struct Compacted;
  Compacted BuildCompacted() const;

  /// \brief Top-`m` live column hits per query, merged across the base
  /// and delta segments with tombstoned columns filtered out.
  ///
  /// On an unchurned lake it is exactly the base index's batch search; on
  /// a churned one the base is over-fetched by the tombstoned-column count
  /// so filtering can never starve the result, and the delta's exact float
  /// hits are k-way merged in by (distance, table, column). Fans over
  /// `pool` when given.
  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> SearchColumnsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool = nullptr) const;

  /// Persists the index: versioned header (backend, metric, HNSW knobs),
  /// table ids, per-table embeddings. A churned lake (pending deltas or
  /// tombstones) writes format version 4 with a churn section; unchurned
  /// lakes keep writing version 2 (float32) / 3 (sq8) byte-identically.
  Status Save(const std::string& path) const;

  /// Loads an index written by Save and seals it. Files from before the
  /// versioned header (magic "LAKE") still load and default to the flat
  /// backend; pre-v4 readers reject churned (v4) files with a clean
  /// "newer format version" Status rather than misparsing them. Lengths
  /// the file cannot hold are a ParseError, never an allocation.
  static Result<LakeIndex> Load(const std::string& path);

  /// Handle-space size: live + tombstoned tables (handles stay dense and
  /// allocated until a full compaction re-densifies them).
  size_t num_tables() const { return table_ids_.size(); }
  /// True when the lake carries pending deltas or tombstones (the states a
  /// pre-churn on-disk format cannot represent).
  bool churned() const {
    return dead_tables_ > 0 || table_ids_.size() > base_tables_;
  }
  /// Tables a search can still return.
  size_t num_live_tables() const { return table_ids_.size() - dead_tables_; }
  /// Columns indexed across base + delta (the ceiling on SearchColumnsBatch
  /// results before tombstone filtering).
  size_t num_columns() const {
    return index_.num_columns() + (delta_ != nullptr ? delta_->num_columns() : 0);
  }
  size_t dim() const { return dim_; }
  const IndexOptions& options() const { return index_.options(); }
  const std::string& table_id(size_t handle) const { return table_ids_[handle]; }
  bool is_live(size_t handle) const { return dead_[handle] == 0; }

  /// Tables waiting in the delta segment for the next compaction.
  size_t pending_delta_tables() const { return table_ids_.size() - base_tables_; }
  /// Tombstoned-but-not-yet-compacted tables.
  size_t pending_tombstones() const { return dead_tables_; }

 private:
  /// Drops tombstoned hits and truncates to `m` (in place).
  void FilterDead(std::vector<ColumnEmbeddingIndex::ColumnHit>* hits,
                  size_t m) const;
  /// Marks `handle` dead and charges its columns to its segment's
  /// over-fetch budget.
  void Tombstone(size_t handle);

  size_t dim_;
  std::vector<std::string> table_ids_;
  // Per-table embeddings.
  std::vector<std::vector<std::vector<float>>> columns_;
  // Base segment: handles [0, base_tables_).
  ColumnEmbeddingIndex index_;

  bool sealed_ = false;
  size_t base_tables_ = 0;
  // Delta segment: float32 flat, by handle.
  std::unique_ptr<ColumnEmbeddingIndex> delta_;
  // Tombstones, by handle.
  std::vector<uint8_t> dead_;
  size_t dead_tables_ = 0;
  // Over-fetch budget for base searches.
  size_t dead_base_columns_ = 0;
  size_t dead_delta_columns_ = 0;
  // id -> handles bearing it, oldest first (RemoveTable kills the newest
  // live one; duplicate ids are legal, as they always were in AddTable).
  std::unordered_map<std::string, std::vector<size_t>> handles_by_id_;
};

struct LakeIndex::Compacted {
  LakeIndex index;
  std::vector<size_t> remap;
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_LAKE_INDEX_H_
