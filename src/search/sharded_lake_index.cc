#include "search/sharded_lake_index.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "search/lake_manifest.h"
#include "search/table_ranker.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {


namespace {

// Mirror ColumnEmbeddingIndex's normalization: the HNSW backend stores
// floats whatever the storage knob says, and the manifest must describe
// what the shard files actually contain.
IndexOptions NormalizeShardStorage(IndexOptions options) {
  if (options.backend == IndexBackend::kHnsw) {
    options.storage = Storage::kFloat32;
  }
  return options;
}

}  // namespace

ShardedLakeIndex::ShardedLakeIndex(size_t dim, size_t num_shards,
                                   const IndexOptions& options)
    : dim_(dim), options_(NormalizeShardStorage(options)) {
  num_shards = std::max<size_t>(1, num_shards);
  shards_.reserve(num_shards);
  to_global_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) shards_.emplace_back(dim, options_);
}

ShardedLakeIndex::ShardedLakeIndex(size_t dim, const IndexOptions& options)
    : dim_(dim), options_(NormalizeShardStorage(options)) {}

void ShardedLakeIndex::MoveFieldsFrom(ShardedLakeIndex&& other) {
  dim_ = other.dim_;
  options_ = other.options_;
  shards_ = std::move(other.shards_);
  global_ids_ = std::move(other.global_ids_);
  locator_ = std::move(other.locator_);
  to_global_ = std::move(other.to_global_);
  compactions_ = other.compactions_;
}

ShardedLakeIndex::ShardedLakeIndex(ShardedLakeIndex&& other) noexcept
    : dim_(other.dim_), options_(other.options_) {
  MoveFieldsFrom(std::move(other));
}

ShardedLakeIndex& ShardedLakeIndex::operator=(
    ShardedLakeIndex&& other) noexcept {
  if (this != &other) MoveFieldsFrom(std::move(other));
  return *this;
}

ShardedLakeIndex ShardedLakeIndex::FromSingle(LakeIndex&& shard) {
  ShardedLakeIndex index(shard.dim(), shard.options());
  {
    // `index` is not visible to any other thread yet; the lock is
    // uncontended and exists for the checker.
    WriterMutexLock lock(&index.mu_);
    index.shards_.push_back(std::move(shard));
    index.to_global_.resize(1);
    index.IndexShardTables(0);
  }
  return index;
}

void ShardedLakeIndex::IndexShardTables(size_t s) {
  const LakeIndex& shard = shards_[s];
  for (size_t local = to_global_[s].size(); local < shard.num_tables(); ++local) {
    size_t handle = global_ids_.size();
    global_ids_.push_back(shard.table_id(local));
    locator_.emplace_back(s, local);
    to_global_[s].push_back(handle);
  }
}

size_t ShardedLakeIndex::ShardOfLocked(const std::string& table_id) const {
  return StableShard(table_id, shards_.size());
}

size_t ShardedLakeIndex::shard_of(const std::string& table_id) const {
  ReaderMutexLock lock(&mu_);
  return ShardOfLocked(table_id);
}

size_t ShardedLakeIndex::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& column_embeddings) {
  MutexLock writer(&writer_mu_);
  // The shard add and the global-map append publish together under one
  // exclusive section, so an in-flight query (which pins the maps with a
  // shared lock for its whole scatter) can never see a shard hit whose
  // local handle lacks a to_global_ entry.
  WriterMutexLock lock(&mu_);
  const size_t s = ShardOfLocked(table_id);
  const size_t local = shards_[s].AddTable(table_id, column_embeddings);
  const size_t handle = global_ids_.size();
  global_ids_.push_back(table_id);
  locator_.emplace_back(s, local);
  TSFM_CHECK_EQ(to_global_[s].size(), local);
  to_global_[s].push_back(handle);
  return handle;
}

Status ShardedLakeIndex::RemoveTable(const std::string& table_id) {
  MutexLock writer(&writer_mu_);
  // Shards carry no locks of their own: the tombstone is written under
  // this index's exclusive lock, like every other shard mutation.
  WriterMutexLock lock(&mu_);
  return shards_[ShardOfLocked(table_id)].RemoveTable(table_id);
}

void ShardedLakeIndex::Seal() {
  MutexLock writer(&writer_mu_);
  WriterMutexLock lock(&mu_);
  for (LakeIndex& shard : shards_) shard.Seal();
}

Status ShardedLakeIndex::Compact(ThreadPool* pool) {
  MutexLock writer(&writer_mu_);

  // Phase A, shared-lock: queries keep running against the old epoch while
  // every churned shard builds its compacted image (survivors re-added in
  // insertion order — the churn-parity contract). writer_mu_ excludes
  // mutations, so the shard state read here cannot move underneath; the
  // shared lock makes that visible to the checker and costs nothing
  // (readers never block readers).
  std::vector<std::optional<LakeIndex::Compacted>> built;
  {
    ReaderMutexLock lock(&mu_);
    built.resize(shards_.size());
    // The build lambda runs on pool threads, where the analysis cannot see
    // this frame's shared lock; bind the guarded field to a plain alias
    // under the lock and capture that instead.
    const std::vector<LakeIndex>& shards = shards_;
    auto build_shard = [&](size_t s) {
      if (shards[s].churned()) built[s] = shards[s].BuildCompacted();
    };
    if (pool != nullptr && shards.size() > 1) {
      ParallelFor(pool, 0, shards.size(), build_shard);
    } else {
      for (size_t s = 0; s < shards.size(); ++s) build_shard(s);
    }
  }

  // Phase B, exclusive: swap rebuilt shards in, seal the rest, and
  // re-densify the global handle maps — one atomic epoch change.
  WriterMutexLock lock(&mu_);
  std::vector<std::string> new_ids;
  std::vector<std::pair<size_t, size_t>> new_locator;
  std::vector<std::vector<size_t>> new_to_global(shards_.size());
  new_ids.reserve(global_ids_.size());
  new_locator.reserve(global_ids_.size());
  for (size_t h = 0; h < global_ids_.size(); ++h) {
    const auto [s, local] = locator_[h];
    size_t new_local = local;
    if (built[s].has_value()) {
      new_local = built[s]->remap[local];
      if (new_local == SIZE_MAX) continue;  // tombstoned; handle retired
    }
    // Surviving locals keep their relative order, so the new maps stay
    // dense per shard and global order matches a from-scratch build.
    TSFM_CHECK_EQ(new_to_global[s].size(), new_local);
    new_to_global[s].push_back(new_ids.size());
    new_locator.emplace_back(s, new_local);
    new_ids.push_back(std::move(global_ids_[h]));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (built[s].has_value()) {
      shards_[s] = std::move(built[s]->index);
    } else {
      shards_[s].Seal();
    }
  }
  global_ids_ = std::move(new_ids);
  locator_ = std::move(new_locator);
  to_global_ = std::move(new_to_global);
  ++compactions_;
  return Status::OK();
}

size_t ShardedLakeIndex::num_tables() const {
  ReaderMutexLock lock(&mu_);
  return global_ids_.size();
}

size_t ShardedLakeIndex::num_live_tables() const {
  ReaderMutexLock lock(&mu_);
  size_t total = 0;
  for (const LakeIndex& shard : shards_) total += shard.num_live_tables();
  return total;
}

size_t ShardedLakeIndex::num_columns() const {
  ReaderMutexLock lock(&mu_);
  size_t total = 0;
  for (const LakeIndex& shard : shards_) total += shard.num_columns();
  return total;
}

std::string ShardedLakeIndex::table_id(size_t handle) const {
  ReaderMutexLock lock(&mu_);
  return global_ids_[handle];
}

size_t ShardedLakeIndex::pending_delta_tables() const {
  ReaderMutexLock lock(&mu_);
  size_t total = 0;
  for (const LakeIndex& shard : shards_) total += shard.pending_delta_tables();
  return total;
}

size_t ShardedLakeIndex::pending_tombstones() const {
  ReaderMutexLock lock(&mu_);
  size_t total = 0;
  for (const LakeIndex& shard : shards_) total += shard.pending_tombstones();
  return total;
}

uint64_t ShardedLakeIndex::compactions() const {
  ReaderMutexLock lock(&mu_);
  return compactions_;
}

bool ShardedLakeIndex::churned() const {
  ReaderMutexLock lock(&mu_);
  for (const LakeIndex& shard : shards_) {
    if (shard.churned()) return true;
  }
  return false;
}

std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
ShardedLakeIndex::SearchColumnHitsBatchLocked(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  // Scatter the WHOLE batch to each shard (one SearchColumnsBatch call per
  // shard, which reaches the flat backend's multi-query scan), remap local
  // table handles to global, then k-way-merge per query. ParallelFor is
  // nest-safe (util/thread_pool.h), so the shard fan-out and the
  // per-shard query-chunk fan-out share one pool.
  // The search lambda runs on pool threads, invisible to this frame's
  // shared lock; bind the guarded fields to aliases under the lock and
  // capture those (see the concurrency contract in docs/architecture.md).
  const std::vector<LakeIndex>& shards = shards_;
  const std::vector<std::vector<size_t>>& to_global = to_global_;
  std::vector<std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>>
      per_shard(shards.size());
  auto search_shard = [&](size_t s, ThreadPool* inner) {
    // Churn-aware shard search: covers base + delta, filters tombstones.
    auto lists = shards[s].SearchColumnsBatch(queries, m, inner);
    // Remap shard-local table handles to global handles. Local handles are
    // assigned in insertion order, so the remap is monotone and each list
    // stays sorted by (distance, table, column).
    for (auto& hits : lists) {
      for (auto& hit : hits) hit.table_id = to_global[s][hit.table_id];
    }
    per_shard[s] = std::move(lists);
  };
  if (pool != nullptr && shards.size() > 1) {
    ParallelFor(pool, 0, shards.size(),
                [&](size_t s) { search_shard(s, pool); });
  } else {
    for (size_t s = 0; s < shards.size(); ++s) search_shard(s, pool);
  }

  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> merged(
      queries.size());
  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> lists(
      shards.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t s = 0; s < shards.size(); ++s) {
      lists[s] = std::move(per_shard[s][q]);
    }
    merged[q] = TableRanker::MergeColumnHits(lists, m);
  }
  return merged;
}

std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
ShardedLakeIndex::SearchColumnHitsBatch(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return SearchColumnHitsBatchLocked(queries, m, pool);
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankUnionableBatchLocked(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  std::vector<std::vector<size_t>> results(queries.size());
  auto exclude_of = [&](size_t q) {
    return q < excludes.size() ? excludes[q] : SIZE_MAX;
  };
  // Flatten every query's columns into one batched scatter so each shard
  // streams its rows once for the whole coalesced group (the multi-query
  // scan), instead of once per query column. The multi-query scan returns
  // the same hit list per column as a one-column batch, so the Fig 6
  // ranking does not depend on how queries were grouped.
  std::vector<std::vector<float>> flat;
  std::vector<size_t> offset(queries.size() + 1, 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    offset[q + 1] = offset[q] + queries[q].size();
  }
  flat.reserve(offset.back());
  for (const auto& query : queries) {
    flat.insert(flat.end(), query.begin(), query.end());
  }
  auto hits = SearchColumnHitsBatchLocked(flat, k * 3, pool);
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> per_column(
        std::make_move_iterator(hits.begin() + offset[q]),
        std::make_move_iterator(hits.begin() + offset[q + 1]));
    results[q] = TableRanker::RankFromColumnHits(per_column, exclude_of(q));
  }
  return results;
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return RankUnionableBatchLocked(queries, k, excludes, pool);
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankJoinableBatchLocked(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  std::vector<std::vector<size_t>> results(query_columns.size());
  auto exclude_of = [&](size_t q) {
    return q < excludes.size() ? excludes[q] : SIZE_MAX;
  };
  auto hits = SearchColumnHitsBatchLocked(query_columns, k * 3, pool);
  for (size_t q = 0; q < query_columns.size(); ++q) {
    results[q] = TableRanker::RankFromSingleColumnHits(hits[q], exclude_of(q));
  }
  return results;
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return RankJoinableBatchLocked(query_columns, k, excludes, pool);
}

std::vector<std::string> ShardedLakeIndex::QueryUnionable(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  return QueryUnionableBatch({query_columns}, k, pool)[0];
}

std::vector<std::string> ShardedLakeIndex::QueryJoinable(
    const std::vector<float>& query_column, size_t k, ThreadPool* pool) const {
  return QueryJoinableBatch({query_column}, k, pool)[0];
}

std::vector<std::vector<std::string>> ShardedLakeIndex::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  auto ranked = RankUnionableBatchLocked(queries, k, /*excludes=*/{}, pool);
  std::vector<std::vector<std::string>> out(ranked.size());
  for (size_t q = 0; q < ranked.size(); ++q) {
    out[q] = RankedTableIds(global_ids_, ranked[q], k);
  }
  return out;
}

std::vector<std::vector<std::string>> ShardedLakeIndex::QueryJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  auto ranked =
      RankJoinableBatchLocked(query_columns, k, /*excludes=*/{}, pool);
  std::vector<std::vector<std::string>> out(ranked.size());
  for (size_t q = 0; q < ranked.size(); ++q) {
    out[q] = RankedTableIds(global_ids_, ranked[q], k);
  }
  return out;
}

Status ShardedLakeIndex::Save(const std::string& path, ThreadPool* pool) const {
  namespace fs = std::filesystem;
  const fs::path manifest_path(path);
  const std::string basename = manifest_path.filename().string();
  const fs::path dir = manifest_path.parent_path();

  // Exclude mutations (writer_mu_) but not queries for the whole save, so
  // the manifest and the shard files describe one epoch.
  MutexLock writer(&writer_mu_);
  ReaderMutexLock lock(&mu_);
  // Alias bound under the shared lock for the pool-dispatched save lambda.
  const std::vector<LakeIndex>& shards = shards_;

  // Shard files first, in parallel: each one is an independent LakeIndex
  // ("LAK2") image, so a crash mid-save never leaves a manifest pointing at
  // files that were not yet written.
  std::vector<Status> statuses(shards.size());
  auto save_shard = [&](size_t s) {
    statuses[s] =
        shards[s].Save((dir / LakeShardFileName(basename, s)).string());
  };
  if (pool != nullptr && shards.size() > 1) {
    ParallelFor(pool, 0, shards.size(), save_shard);
  } else {
    for (size_t s = 0; s < shards.size(); ++s) save_shard(s);
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  LakeManifest manifest;
  manifest.backend = options_.backend;
  manifest.metric = options_.metric;
  manifest.storage = options_.storage;
  manifest.dim = dim_;
  size_t live = 0;
  for (const LakeIndex& shard : shards_) {
    if (shard.churned()) manifest.churned = true;
    live += shard.num_live_tables();
  }
  manifest.live_tables = live;
  manifest.shard_files.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    manifest.shard_files.push_back(LakeShardFileName(basename, s));
  }
  // Global handle space: (shard, local) per handle in insertion order —
  // tombstoned handles included, matching the shard files' churn sections —
  // so handles assigned by AddTable stay valid across a save/load round
  // trip (until the next full compaction re-densifies them).
  manifest.locator.reserve(locator_.size());
  for (const auto& [shard, local] : locator_) {
    manifest.locator.emplace_back(static_cast<uint32_t>(shard),
                                  static_cast<uint64_t>(local));
  }
  return SaveLakeManifest(manifest, path);
}

Result<ShardedLakeIndex> ShardedLakeIndex::Load(const std::string& path,
                                                ThreadPool* pool) {
  namespace fs = std::filesystem;
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Status::IoError("cannot open " + path);
  }
  if (!IsLakeManifestFile(path)) {
    // Legacy single-file formats ("LAK2" / "LAKE"): wrap as one shard.
    auto single = LakeIndex::Load(path);
    if (!single.ok()) return single.status();
    return FromSingle(std::move(single).value());
  }

  Result<LakeManifest> parsed = LoadLakeManifest(path);
  if (!parsed.ok()) return parsed.status();
  const LakeManifest manifest = std::move(parsed).value();
  const size_t num_shards = manifest.num_shards();
  const uint64_t dim = manifest.dim;
  const std::vector<std::string>& shard_files = manifest.shard_files;
  const auto& locator = manifest.locator;
  const uint64_t num_tables = manifest.num_tables();

  // Load the shard files in parallel; each is a self-contained LakeIndex.
  const fs::path dir = fs::path(path).parent_path();
  std::vector<std::optional<Result<LakeIndex>>> loaded(num_shards);
  auto load_shard = [&](size_t s) {
    loaded[s] = LakeIndex::Load((dir / shard_files[s]).string());
  };
  if (pool != nullptr && num_shards > 1) {
    ParallelFor(pool, 0, num_shards, load_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) load_shard(s);
  }

  IndexOptions options;
  options.backend = manifest.backend;
  options.metric = manifest.metric;
  options.storage = manifest.storage;
  ShardedLakeIndex index(static_cast<size_t>(dim), options);
  {
    // `index` is not visible to any other thread yet; the lock is
    // uncontended and exists for the checker. Error paths return while it is
    // held, which is fine — the guard unwinds first. The scope ends before
    // the success return so the move out of `index` happens unlocked.
    WriterMutexLock lock(&index.mu_);
    index.shards_.reserve(num_shards);
    uint64_t total_shard_tables = 0;
    uint64_t total_live_tables = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      if (!loaded[s]->ok()) return loaded[s]->status();
      LakeIndex shard = std::move(*loaded[s]).value();
      if (shard.dim() != dim) {
        return Status::ParseError("shard " + shard_files[s] +
                                  " dim disagrees with manifest " + path);
      }
      if (shard.options().backend != options.backend ||
          shard.options().metric != options.metric) {
        return Status::ParseError("shard " + shard_files[s] +
                                  " backend/metric disagrees with manifest " +
                                  path);
      }
      if (shard.options().storage != options.storage) {
        // A float shard merged into an sq8 lake (or vice versa) would rank
        // with distances from two different spaces; refuse loudly.
        return Status::ParseError(
            "shard " + shard_files[s] + " storage (" +
            (shard.options().storage == Storage::kSq8 ? "sq8" : "float32") +
            ") disagrees with manifest " + path + " (" +
            (options.storage == Storage::kSq8 ? "sq8" : "float32") + ")");
      }
      total_shard_tables += shard.num_tables();
      total_live_tables += shard.num_live_tables();
      index.shards_.push_back(std::move(shard));
    }
    // Rebuild the global handle space in its original insertion order from
    // the manifest's locator records; every shard table must be claimed by
    // exactly one record.
    if (total_shard_tables != num_tables) {
      return Status::ParseError("lake manifest " + path +
                                " table count disagrees with shard files");
    }
    // Churned manifests also pin the live count, catching a manifest paired
    // with shard files from a different compaction epoch.
    if (total_live_tables != manifest.live_tables) {
      return Status::ParseError("lake manifest " + path +
                                " live-table count disagrees with shard files");
    }
    index.to_global_.resize(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      index.to_global_[s].assign(index.shards_[s].num_tables(), SIZE_MAX);
    }
    index.global_ids_.reserve(num_tables);
    index.locator_.reserve(num_tables);
    for (const auto& [shard, local] : locator) {
      if (local >= index.to_global_[shard].size() ||
          index.to_global_[shard][local] != SIZE_MAX) {
        return Status::ParseError("lake manifest " + path +
                                  " has an invalid or duplicate table record");
      }
      index.to_global_[shard][local] = index.global_ids_.size();
      index.global_ids_.push_back(index.shards_[shard].table_id(local));
      index.locator_.emplace_back(shard, local);
    }
    // The shard files carry the HNSW knobs; mirror shard 0's so options()
    // reports what the shards actually use.
    index.options_.hnsw = index.shards_[0].options().hnsw;
  }
  return index;
}

}  // namespace tsfm::search
