// The "LAKS" manifest: the metadata half of a sharded lake index on disk.
//
// A sharded index is one manifest plus one self-contained "LAK2" LakeIndex
// file per shard. The manifest records everything a reader needs to know
// *without* opening the shard files: backend, metric, dim, the per-shard
// file names, and the global handle order (one (shard, local) record per
// table in AddTable insertion order, so handles survive a round trip).
//
// Split out of ShardedLakeIndex because two deployments read it:
//   - ShardedLakeIndex::Load opens the manifest and then loads every shard
//     file into one process;
//   - server::DistributedLakeIndex opens only the manifest and leaves each
//     shard file to its own lake_shard_worker process, rebuilding the
//     global handle space from the locator plus the workers' table lists.
// Both keep that handle space in a HandleMap (below), the in-memory form
// of the locator.
#ifndef TSFM_SEARCH_LAKE_MANIFEST_H_
#define TSFM_SEARCH_LAKE_MANIFEST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "search/vector_index.h"
#include "util/status.h"

namespace tsfm::search {

/// First four bytes of a manifest file ("LAKS" little-endian); anything
/// else is treated as a legacy single-file index by ShardedLakeIndex::Load.
inline constexpr uint32_t kLakeManifestMagic = 0x4c414b53;

/// \brief Newest manifest layout this build writes or reads.
///
/// Version 1: backend/metric/dim/shard files/locator. Version 2 adds a
/// storage word after the metric. Version 3 adds a live-table count after
/// the dim, and is written only for churned lakes (some shard carries
/// pending deltas or tombstones, so the locator's handle count exceeds the
/// live count). Unchurned float32 manifests still write version 1 and
/// unchurned sq8 manifests version 2 (both byte-identical for old
/// readers); pre-v3 readers reject churned manifests with a clean "newer
/// format version" Status.
inline constexpr uint32_t kLakeManifestVersion = 3;

/// Upper bound on the shard count a manifest may claim.
inline constexpr uint64_t kMaxLakeShards = 1u << 16;

/// \brief Parsed contents of a "LAKS" manifest.
///
/// `shard_files[s]` is the file name of shard s, relative to the manifest's
/// directory. `locator[h]` is table handle h's (shard, local-handle) pair,
/// in global insertion order — the record that makes sharded and
/// distributed deployments rank with identical tie-breaking.
struct LakeManifest {
  IndexBackend backend = IndexBackend::kFlat;
  Metric metric = Metric::kCosine;
  Storage storage = Storage::kFloat32;  ///< storage of every shard file
  uint64_t dim = 0;
  /// Tables queries can return. Meaningful only when `churned` (version 3
  /// manifests); otherwise equals num_tables().
  uint64_t live_tables = 0;
  /// Write-side flag, not itself persisted: true forces a version-3
  /// manifest carrying `live_tables`. LoadLakeManifest sets it for v3
  /// files so callers can tell the two shapes apart.
  bool churned = false;
  std::vector<std::string> shard_files;
  std::vector<std::pair<uint32_t, uint64_t>> locator;

  size_t num_shards() const { return shard_files.size(); }
  size_t num_tables() const { return locator.size(); }
};

/// The conventional shard file name: "<manifest-basename>.shard-<s>".
std::string LakeShardFileName(const std::string& manifest_basename,
                              size_t shard);

/// True when `path` starts with the manifest magic (a readable file that is
/// too short or starts with anything else is false, not an error).
bool IsLakeManifestFile(const std::string& path);

/// \brief Writes `manifest` to `path`.
///
/// Validation mirrors LoadLakeManifest: an inconsistent manifest (locator
/// routing to a shard with no file entry, zero dim) is an error here rather
/// than a file no reader will accept.
Status SaveLakeManifest(const LakeManifest& manifest, const std::string& path);

/// \brief Parses a manifest written by SaveLakeManifest.
///
/// A truncated file, bad magic, newer version, implausible shape (zero or
/// absurd dim/shard counts), or a locator record routing to a nonexistent
/// shard yields an error Status, never a crash.
Result<LakeManifest> LoadLakeManifest(const std::string& path);

/// \brief A lake's global handle space: handle -> (id, shard, local
/// handle), and shard -> local -> handle.
///
/// Handles are dense and in insertion order, and so are each shard's
/// locals, so the local-to-global remap is monotone: a shard's hit list
/// sorted by (distance, table, column) stays sorted after it, and merged
/// lists tie-break like one unsharded index. Each lake guards its map with
/// its own lock.
class HandleMap {
 public:
  explicit HandleMap(size_t num_shards = 0) : to_global_(num_shards) {}

  /// Rebuilds a manifest's handle space. `shard_ids[s]` lists shard s's
  /// ids in local order; each locator record claims the next one of its
  /// shard. Any other record is a ParseError naming `path`.
  static Result<HandleMap> FromLocator(
      const std::vector<std::pair<uint32_t, uint64_t>>& locator,
      std::vector<std::vector<std::string>> shard_ids, const std::string& path);

  /// Registers a table appended to shard `shard`; returns its handle.
  size_t Append(size_t shard, std::string id);

  /// The map after a full compaction: handles with `keep(handle)` false
  /// retire, survivors keep their order globally and per shard — the
  /// order LakeIndex::BuildCompacted re-adds them in.
  HandleMap Compacted(const std::function<bool(size_t handle)>& keep) const;

  /// The ids of each query's first `k` ranked handles.
  std::vector<std::vector<std::string>> RankedIds(
      const std::vector<std::vector<size_t>>& ranked, size_t k) const;

  size_t size() const { return ids_.size(); }
  const std::vector<std::string>& ids() const { return ids_; }
  const std::string& id(size_t handle) const { return ids_[handle]; }
  std::pair<size_t, size_t> locate(size_t handle) const {
    return locator_[handle];
  }
  size_t shard_size(size_t shard) const { return to_global_[shard].size(); }
  size_t global(size_t shard, size_t local) const {
    return to_global_[shard][local];
  }

 private:
  std::vector<std::string> ids_;
  std::vector<std::pair<size_t, size_t>> locator_;
  std::vector<std::vector<size_t>> to_global_;
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_LAKE_MANIFEST_H_
