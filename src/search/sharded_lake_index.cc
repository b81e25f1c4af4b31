#include "search/sharded_lake_index.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
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
  handles_ = HandleMap(num_shards);
  for (size_t s = 0; s < num_shards; ++s) shards_.emplace_back(dim, options_);
}

ShardedLakeIndex::ShardedLakeIndex(size_t dim, const IndexOptions& options)
    : dim_(dim), options_(NormalizeShardStorage(options)) {}

void ShardedLakeIndex::MoveFieldsFrom(ShardedLakeIndex&& other) {
  dim_ = other.dim_;
  options_ = other.options_;
  shards_ = std::move(other.shards_);
  handles_ = std::move(other.handles_);
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
    index.handles_ = HandleMap(1);
    for (const auto& id : shard.table_ids()) index.handles_.Append(0, id);
    index.shards_.push_back(std::move(shard));
  }
  return index;
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
  // local handle has no global one.
  WriterMutexLock lock(&mu_);
  const size_t s = ShardOfLocked(table_id);
  const size_t local = shards_[s].AddTable(table_id, column_embeddings);
  TSFM_CHECK_EQ(handles_.shard_size(s), local);
  return handles_.Append(s, table_id);
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
  // insertion order — the churn-parity contract) and the handle map its
  // re-densified copy. writer_mu_ excludes mutations, so the state read
  // here cannot move underneath; the shared lock makes that visible to the
  // checker and costs nothing (readers never block readers).
  std::vector<std::optional<LakeIndex::Compacted>> built;
  HandleMap compacted;
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
    // The re-densified handle map: tombstoned handles retire, survivors
    // keep their order, as BuildCompacted re-added them.
    const HandleMap& old = handles_;
    compacted = old.Compacted([&](size_t h) {
      const auto [s, local] = old.locate(h);
      return !built[s].has_value() || built[s]->remap[local] != SIZE_MAX;
    });
  }

  // Phase B, exclusive: swap the rebuilt shards and the new handle map in
  // and seal the rest — one atomic epoch change.
  WriterMutexLock lock(&mu_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (built[s].has_value()) {
      shards_[s] = std::move(built[s]->index);
    } else {
      shards_[s].Seal();
    }
  }
  handles_ = std::move(compacted);
  ++compactions_;
  return Status::OK();
}

size_t ShardedLakeIndex::num_tables() const {
  ReaderMutexLock lock(&mu_);
  return handles_.size();
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
  return handles_.id(handle);
}

std::vector<std::string> ShardedLakeIndex::table_ids() const {
  ReaderMutexLock lock(&mu_);
  return handles_.ids();
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

TableRanker::ShardSearcher ShardedLakeIndex::SearcherLocked(
    ThreadPool* pool) const {
  // The searcher runs on pool threads, invisible to the caller's shared
  // lock, so it captures aliases bound under it (docs/architecture.md).
  // ParallelFor is nest-safe: shard and query-chunk fan-outs share `pool`.
  const std::vector<LakeIndex>& shards = shards_;
  const HandleMap& handles = handles_;
  return [&shards, &handles, pool](
             size_t s, const std::vector<std::vector<float>>& columns,
             size_t m) -> Result<TableRanker::HitLists> {
    // Churn-aware shard search: covers base + delta, filters tombstones.
    TableRanker::HitLists lists =
        shards[s].SearchColumnsBatch(columns, m, pool);
    // Local handles are insertion-ordered, so the remap is monotone and
    // each list stays sorted by (distance, table, column).
    for (auto& hits : lists) {
      for (auto& hit : hits) hit.table_id = handles.global(s, hit.table_id);
    }
    return lists;
  };
}

std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
ShardedLakeIndex::SearchColumnHitsBatch(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  // The in-process searcher cannot fail.
  return TableRanker::ScatterMerge(queries, m, shards_.size(),
                                   SearcherLocked(pool), pool)
      .value();
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return TableRanker::ScatterMergeRank(queries, k, excludes, shards_.size(),
                                       SearcherLocked(pool), pool)
      .value();
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return TableRanker::ScatterMergeRank(query_columns, k, excludes,
                                       shards_.size(), SearcherLocked(pool),
                                       pool)
      .value();
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

// The Query*Batch entry points hold one shared lock across rank and id
// lookup, so the ids come from the epoch the ranks were computed in.
std::vector<std::vector<std::string>> ShardedLakeIndex::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return handles_.RankedIds(
      TableRanker::ScatterMergeRank(queries, k, /*excludes=*/{},
                                    shards_.size(), SearcherLocked(pool), pool)
          .value(),
      k);
}

std::vector<std::vector<std::string>> ShardedLakeIndex::QueryJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return handles_.RankedIds(
      TableRanker::ScatterMergeRank(query_columns, k, /*excludes=*/{},
                                    shards_.size(), SearcherLocked(pool), pool)
          .value(),
      k);
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
  manifest.locator.reserve(handles_.size());
  for (size_t h = 0; h < handles_.size(); ++h) {
    const auto [shard, local] = handles_.locate(h);
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
    std::vector<std::vector<std::string>> shard_ids;
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
      shard_ids.push_back(shard.table_ids());
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
    Result<HandleMap> handles =
        HandleMap::FromLocator(manifest.locator, std::move(shard_ids), path);
    if (!handles.ok()) return handles.status();
    index.handles_ = std::move(handles).value();
    // The shard files carry the HNSW knobs; mirror shard 0's so options()
    // reports what the shards actually use.
    index.options_.hnsw = index.shards_[0].options().hnsw;
  }
  return index;
}

}  // namespace tsfm::search
