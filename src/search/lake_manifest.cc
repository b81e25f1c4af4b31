#include "search/lake_manifest.h"

#include <algorithm>
#include <fstream>

#include "search/stream_io.h"

namespace tsfm::search {

using io::ReadPod;
using io::WritePod;

std::string LakeShardFileName(const std::string& manifest_basename,
                              size_t shard) {
  return manifest_basename + ".shard-" + std::to_string(shard);
}

bool IsLakeManifestFile(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return false;
  uint32_t magic = 0;
  return ReadPod(probe, &magic) && magic == kLakeManifestMagic;
}

Status SaveLakeManifest(const LakeManifest& manifest, const std::string& path) {
  if (manifest.dim == 0) {
    return Status::InvalidArgument("lake manifest dim must be nonzero");
  }
  if (manifest.shard_files.empty() ||
      manifest.shard_files.size() > kMaxLakeShards) {
    return Status::InvalidArgument("lake manifest shard count out of range");
  }
  for (const auto& [shard, local] : manifest.locator) {
    if (shard >= manifest.shard_files.size()) {
      return Status::InvalidArgument(
          "lake manifest locator routes a table to a nonexistent shard");
    }
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const bool sq8 = manifest.storage == Storage::kSq8;
  // Lowest version that can represent the manifest, so unchurned lakes
  // keep their historical bytes: 3 = churned (live-table count), 2 = sq8
  // storage word, 1 = the original float32 shape.
  const uint32_t version = manifest.churned ? kLakeManifestVersion
                           : sq8            ? uint32_t{2}
                                            : uint32_t{1};
  WritePod(out, kLakeManifestMagic);
  WritePod(out, version);
  WritePod(out, static_cast<uint32_t>(manifest.backend));
  WritePod(out, static_cast<uint32_t>(manifest.metric));
  if (version >= 2) WritePod(out, static_cast<uint32_t>(manifest.storage));
  WritePod(out, manifest.dim);
  if (version >= 3) WritePod(out, manifest.live_tables);
  WritePod(out, static_cast<uint64_t>(manifest.shard_files.size()));
  for (const std::string& name : manifest.shard_files) {
    WritePod(out, static_cast<uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  WritePod(out, static_cast<uint64_t>(manifest.locator.size()));
  for (const auto& [shard, local] : manifest.locator) {
    WritePod(out, shard);
    WritePod(out, local);
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<LakeManifest> LoadLakeManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const auto file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  uint32_t magic = 0, version = 0, backend = 0, metric = 0, storage = 0;
  uint64_t dim = 0, num_shards = 0;
  if (!ReadPod(in, &magic)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (magic != kLakeManifestMagic) {
    return Status::ParseError(path + " is not a lake manifest");
  }
  if (!ReadPod(in, &version) || !ReadPod(in, &backend) ||
      !ReadPod(in, &metric)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (version > kLakeManifestVersion) {
    return Status::ParseError("lake manifest " + path +
                              " written by a newer format version");
  }
  if (version >= 2 && !ReadPod(in, &storage)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (!ReadPod(in, &dim)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  uint64_t live_tables = 0;
  if (version >= 3 && !ReadPod(in, &live_tables)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (!ReadPod(in, &num_shards)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (backend > static_cast<uint32_t>(IndexBackend::kHnsw) ||
      metric > static_cast<uint32_t>(Metric::kL2) ||
      storage > static_cast<uint32_t>(Storage::kSq8)) {
    return Status::ParseError("bad lake-manifest backend/metric in " + path);
  }
  if (dim == 0 || dim > (1u << 20) || num_shards == 0 ||
      num_shards > kMaxLakeShards) {
    return Status::ParseError("implausible lake manifest " + path);
  }

  LakeManifest manifest;
  manifest.backend = static_cast<IndexBackend>(backend);
  manifest.metric = static_cast<Metric>(metric);
  manifest.storage = static_cast<Storage>(storage);
  manifest.dim = dim;
  manifest.churned = version >= 3;
  manifest.live_tables = live_tables;
  manifest.shard_files.resize(num_shards);
  for (auto& name : manifest.shard_files) {
    uint64_t len = 0;
    if (!ReadPod(in, &len) || len > (1u << 16)) {
      return Status::IoError("truncated lake manifest " + path);
    }
    name.resize(len);
    in.read(name.data(), static_cast<std::streamsize>(len));
    if (!in) return Status::IoError("truncated lake manifest " + path);
  }
  uint64_t num_tables = 0;
  if (!ReadPod(in, &num_tables) || num_tables > (1ull << 32)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  // Each on-disk locator record is a u32 shard plus a u64 local handle:
  // check the count against the bytes left before allocating for it.
  constexpr uint64_t kLocatorRecordBytes = sizeof(uint32_t) + sizeof(uint64_t);
  if (num_tables > (file_size - static_cast<uint64_t>(in.tellg())) /
                       kLocatorRecordBytes) {
    return Status::ParseError("lake manifest " + path +
                              " claims more tables than the file holds");
  }
  manifest.locator.resize(num_tables);
  for (auto& [shard, local] : manifest.locator) {
    if (!ReadPod(in, &shard) || !ReadPod(in, &local)) {
      return Status::IoError("truncated lake manifest " + path);
    }
    if (shard >= num_shards) {
      return Status::ParseError("lake manifest " + path +
                                " routes a table to a nonexistent shard");
    }
  }
  if (manifest.churned) {
    if (manifest.live_tables > num_tables) {
      return Status::ParseError("lake manifest " + path +
                                " claims more live tables than tables");
    }
  } else {
    manifest.live_tables = num_tables;  // pre-churn manifests: all live
  }
  return manifest;
}

Result<HandleMap> HandleMap::FromLocator(
    const std::vector<std::pair<uint32_t, uint64_t>>& locator,
    std::vector<std::vector<std::string>> shard_ids, const std::string& path) {
  HandleMap map(shard_ids.size());
  for (const auto& [shard, local] : locator) {
    // Each record claims its shard's next local handle, the order every
    // writer produces and the monotone remap relies on.
    if (shard >= shard_ids.size() || local >= shard_ids[shard].size() ||
        local != map.shard_size(shard)) {
      return Status::ParseError("lake manifest " + path +
                                " has an invalid or duplicate table record");
    }
    map.Append(shard, std::move(shard_ids[shard][local]));
  }
  return map;
}

size_t HandleMap::Append(size_t shard, std::string id) {
  const size_t handle = ids_.size();
  locator_.emplace_back(shard, to_global_[shard].size());
  to_global_[shard].push_back(handle);
  ids_.push_back(std::move(id));
  return handle;
}

HandleMap HandleMap::Compacted(
    const std::function<bool(size_t handle)>& keep) const {
  HandleMap map(to_global_.size());
  map.ids_.reserve(ids_.size());
  map.locator_.reserve(ids_.size());
  for (size_t h = 0; h < ids_.size(); ++h) {
    if (keep(h)) map.Append(locator_[h].first, ids_[h]);
  }
  return map;
}

std::vector<std::vector<std::string>> HandleMap::RankedIds(
    const std::vector<std::vector<size_t>>& ranked, size_t k) const {
  std::vector<std::vector<std::string>> out(ranked.size());
  for (size_t q = 0; q < ranked.size(); ++q) {
    for (size_t i = 0; i < std::min(k, ranked[q].size()); ++i) {
      out[q].push_back(ids_[ranked[q][i]]);
    }
  }
  return out;
}

}  // namespace tsfm::search
