// Sharded data-lake index: the paper's deployment (Sec V) partitioned
// across N shards so one lake can exceed a single machine's memory and
// build time. It is the only lake type with a lifecycle and locks; a
// single lake is a 1-shard ShardedLakeIndex.
//
// Tables are routed to shards by a stable hash of their string id
// (util/hash.h StableShard), so every column of a table lives in exactly
// one shard and the assignment survives rebuilds. Each shard owns its own
// VectorIndex (flat or HNSW via IndexOptions). Every query — single or
// batch — takes one path: one batched scatter over all shards (on a
// ThreadPool when one is given), the per-shard sorted candidate lists
// gathered with TableRanker::MergeColumnHits (a k-way heap merge), then
// the Fig 6 ranking, which makes the flat-backend results bit-identical
// to a single index over the same corpus at any shard count.
//
// On disk the index is a "LAKS" manifest (shard count, backend, metric,
// dim, per-shard file names) next to one "LAK2" LakeIndex file per shard;
// Save and Load handle the shard files in parallel. Legacy single-file
// "LAK2"/"LAKE" indexes load as a 1-shard index, so existing callers can
// switch over behind a --shards knob without a migration.
#ifndef TSFM_SEARCH_SHARDED_LAKE_INDEX_H_
#define TSFM_SEARCH_SHARDED_LAKE_INDEX_H_

#include <string>
#include <utility>
#include <vector>

#include "search/lake_index.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

/// \brief A lake of LakeIndex shard segments with scatter/gather ranking.
///
/// Query API: string table ids in, ranked ids out, plus handle-level
/// Rank*Batch entry points with exclude ids for benchmark drivers. All
/// query methods are const-thread-safe and may overlap AddTable/
/// RemoveTable/Compact. This class is the one lock domain of the search
/// layer — the shards carry no locks — so a query takes one shared lock,
/// which pins one epoch of the global handle maps and every shard for its
/// whole duration; mutations serialize behind a writer mutex and write
/// the shards under brief exclusive locks, and Compact rebuilds every
/// churned shard off-lock before swapping shards + maps in one exclusive
/// section. The optional ThreadPool fans work out over shards and query
/// chunks; results are identical to the serial path.
///
/// Each shard retains its raw column embeddings so Save can write
/// self-contained shard files; a query-only deployment pays that memory
/// twice (once in the shard, once in its VectorIndex).
class ShardedLakeIndex {
 public:
  /// Creates an empty index of `num_shards` shards (clamped to >= 1), each
  /// owning a VectorIndex configured by `options`.
  ShardedLakeIndex(size_t dim, size_t num_shards, const IndexOptions& options = {});

  /// Moves must not overlap any other operation on either operand (a
  /// moved index re-arms fresh locks).
  ShardedLakeIndex(ShardedLakeIndex&& other) noexcept;
  ShardedLakeIndex& operator=(ShardedLakeIndex&& other) noexcept;
  ShardedLakeIndex(const ShardedLakeIndex&) = delete;
  ShardedLakeIndex& operator=(const ShardedLakeIndex&) = delete;

  /// Routes the table to its shard by stable hash of `table_id` and
  /// registers its column embeddings. Returns the table's global handle
  /// (dense, in insertion order). Safe to call concurrently with queries;
  /// before any shard is sealed the table joins that shard's base segment
  /// (bulk build), afterwards its delta segment (live ingest).
  size_t AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& column_embeddings)
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// Tombstones the most recently added live table named `table_id` in its
  /// owning shard. kNotFound when no live table has that id. Safe to call
  /// concurrently with queries (it waits for in-flight ones, as AddTable
  /// does).
  Status RemoveTable(const std::string& table_id)
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// Ends the bulk-build phase on every shard: later AddTable calls land
  /// in delta segments. Idempotent; Load() and Compact() seal.
  void Seal() LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Folds every shard's deltas + tombstones back into its base.
  ///
  /// Every churned shard is rebuilt from its survivors (HNSW included: a
  /// fresh graph) off-lock, in parallel over `pool`; the new shards and
  /// the re-densified global handle maps are then swapped in under one
  /// exclusive section, so concurrent queries see either the old epoch or
  /// the new one, never a mix. Post-compaction
  /// flat-backend rankings are bit-identical to a from-scratch build of
  /// the surviving tables in insertion order.
  Status Compact(ThreadPool* pool = nullptr) LAKS_EXCLUDES(writer_mu_, mu_);

  /// Ranked table ids for a union/subset query (Fig 6 multi-column rank):
  /// a batch of one.
  std::vector<std::string> QueryUnionable(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// Ranked table ids for a join query on a single column: a batch of one.
  std::vector<std::string> QueryJoinable(const std::vector<float>& query_column,
                                         size_t k,
                                         ThreadPool* pool = nullptr) const
      LAKS_EXCLUDES(mu_);

  /// One QueryUnionable result per query; queries fan out over `pool`.
  std::vector<std::vector<std::string>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// One QueryJoinable result per query column; queries fan out over `pool`.
  std::vector<std::vector<std::string>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// \brief Handle-level union/subset ranking with exclude handles.
  ///
  /// Returns global table handles instead of ids; `excludes` pairs with
  /// `queries` (empty = none; SIZE_MAX excludes nothing) — the entry point
  /// RunSearch uses, where each query table is itself part of the corpus.
  std::vector<std::vector<size_t>> RankUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool = nullptr) const
      LAKS_EXCLUDES(mu_);

  /// Handle-level join ranking; `excludes` pairs with `query_columns`.
  std::vector<std::vector<size_t>> RankJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool = nullptr) const
      LAKS_EXCLUDES(mu_);

  /// \brief Raw scatter/gather: the global top-`m` column hits per query.
  ///
  /// Each shard answers ALL queries through one SearchColumnsBatch call —
  /// on flat backends that is the multi-query mini-GEMM scan, so each
  /// shard's rows stream from memory once per batch instead of once per
  /// query. Shard-local table handles are remapped to global handles and
  /// the sorted per-shard lists k-way-merged (TableRanker::MergeColumnHits).
  /// Shards (and the per-shard query chunks) fan out over `pool` when
  /// given. This is the half of a query below the Fig 6 ranking — exposed
  /// so a serving layer can answer SHARD_QUERY frames for a distributed
  /// coordinator, which gathers hits from many worker processes and runs
  /// the exact same ranking code on top.
  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
  SearchColumnHitsBatch(const std::vector<std::vector<float>>& queries,
                        size_t m, ThreadPool* pool = nullptr) const
      LAKS_EXCLUDES(mu_);

  /// \brief Wraps an already-built single LakeIndex as a 1-shard index.
  ///
  /// Used for legacy single-file formats and by shard workers, which serve
  /// exactly one shard file of a distributed lake through the regular
  /// ShardedLakeIndex surface.
  static ShardedLakeIndex FromSingle(LakeIndex&& shard);

  /// \brief Persists the index as a "LAKS" manifest plus one shard file.
  ///
  /// `path` names the manifest; shard s is written next to it as
  /// "<basename>.shard-<s>" and recorded in the manifest by that relative
  /// name. Shard files are written in parallel over `pool` when given.
  Status Save(const std::string& path, ThreadPool* pool = nullptr) const
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Loads an index written by Save, shards in parallel over `pool`.
  ///
  /// The manifest records the global handle space, so handles assigned by
  /// AddTable before Save stay valid after Load. A missing shard file, a
  /// truncated manifest, or metadata that contradicts the shard files
  /// yields an error Status. A legacy single-file "LAK2"/"LAKE" index
  /// loads as a 1-shard index.
  static Result<ShardedLakeIndex> Load(const std::string& path,
                                       ThreadPool* pool = nullptr);

  size_t num_shards() const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return shards_.size();
  }
  /// Global handle-space size: live + tombstoned tables (re-densified by a
  /// full compaction, like LakeIndex handles).
  size_t num_tables() const LAKS_EXCLUDES(mu_);
  /// Tables a query can still return.
  size_t num_live_tables() const LAKS_EXCLUDES(mu_);
  /// Total column count across all shards (the ceiling on
  /// SearchColumnHitsBatch results — a serving layer clamps hostile `m`
  /// to it).
  size_t num_columns() const LAKS_EXCLUDES(mu_);
  size_t dim() const { return dim_; }
  const IndexOptions& options() const { return options_; }
  /// The id behind a global handle (a copy: the maps may be re-densified
  /// by a concurrent compaction).
  std::string table_id(size_t handle) const LAKS_EXCLUDES(mu_);

  /// The shard `table_id` routes to (stable across rebuilds and processes).
  size_t shard_of(const std::string& table_id) const LAKS_EXCLUDES(mu_);

  /// Number of tables resident in shard `s` (live + tombstoned).
  size_t shard_size(size_t s) const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return shards_[s].num_tables();
  }

  /// Delta tables across all shards awaiting the next compaction.
  size_t pending_delta_tables() const LAKS_EXCLUDES(mu_);
  /// Tombstoned-but-not-yet-compacted tables across all shards.
  size_t pending_tombstones() const LAKS_EXCLUDES(mu_);
  /// Completed Compact calls on this index.
  uint64_t compactions() const LAKS_EXCLUDES(mu_);
  /// True when any shard carries pending deltas or tombstones.
  bool churned() const LAKS_EXCLUDES(mu_);

 private:
  explicit ShardedLakeIndex(size_t dim, const IndexOptions& options);

  /// Registers every table of shard `s` in the global handle maps, in the
  /// shard's insertion order.
  void IndexShardTables(size_t s) LAKS_REQUIRES(mu_);
  /// Unanalyzed on purpose: moves must not overlap any other operation on
  /// either operand (the documented move contract), so no lock is held.
  void MoveFieldsFrom(ShardedLakeIndex&& other) LAKS_NO_THREAD_SAFETY_ANALYSIS;
  size_t ShardOfLocked(const std::string& table_id) const
      LAKS_REQUIRES_SHARED(mu_);

  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
  SearchColumnHitsBatchLocked(const std::vector<std::vector<float>>& queries,
                              size_t m, ThreadPool* pool) const
      LAKS_REQUIRES_SHARED(mu_);
  std::vector<std::vector<size_t>> RankUnionableBatchLocked(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool) const
      LAKS_REQUIRES_SHARED(mu_);
  std::vector<std::vector<size_t>> RankJoinableBatchLocked(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool) const
      LAKS_REQUIRES_SHARED(mu_);

  // The search layer's one lock domain; shards carry no locks.
  // Lock order: writer_mu_ before mu_.
  // Queries hold mu_ shared across the whole scatter + merge + rank so the
  // maps and shard set they read belong to one epoch; mutations take
  // writer_mu_, then mu_ exclusive only for the brief publish step.
  //
  // mutable writer_mu_: Save is const but must exclude mutations so the
  // manifest and shard files describe one epoch.
  mutable Mutex writer_mu_;
  mutable SharedMutex mu_ LAKS_ACQUIRED_AFTER(writer_mu_);

  // dim_ and options_ are set before the index is shared (constructor /
  // Load, moves excepted) and never change afterwards, so they are read
  // without the lock.
  size_t dim_;
  IndexOptions options_;
  // The vector structure (element count) only changes pre-publication; a
  // compaction swaps *elements* under an exclusive lock, which is why the
  // whole vector is guarded, and so is every shard's state.
  std::vector<LakeIndex> shards_ LAKS_GUARDED_BY(mu_);
  // handle -> id
  std::vector<std::string> global_ids_ LAKS_GUARDED_BY(mu_);
  // handle -> (shard, local)
  std::vector<std::pair<size_t, size_t>> locator_ LAKS_GUARDED_BY(mu_);
  // shard -> local -> handle
  std::vector<std::vector<size_t>> to_global_ LAKS_GUARDED_BY(mu_);
  uint64_t compactions_ LAKS_GUARDED_BY(mu_) = 0;
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_SHARDED_LAKE_INDEX_H_
