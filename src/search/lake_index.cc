#include "search/lake_index.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <utility>

#include "search/quantizer.h"
#include "search/stream_io.h"
#include "util/logging.h"

namespace tsfm::search {

using io::ReadPod;
using io::WritePod;

namespace {

constexpr uint32_t kMagicV1 = 0x4c414b45;  // "LAKE" — legacy headerless format
constexpr uint32_t kMagicV2 = 0x4c414b32;  // "LAK2" — versioned header
// Version 2: backend/metric/hnsw header. Version 3 adds a storage word to
// the header and an Sq8Codec calibration section ("CSQ8") before the table
// records. Version 4 adds a churn section (base table count + tombstone
// list) between the header and the table records, and is written only for
// lakes with pending deltas or tombstones. Float32 unchurned indexes still
// write version 2 — byte-identical to what older readers expect — and
// unchurned sq8 keeps writing version 3, so only files a pre-churn reader
// genuinely cannot represent demand version 4 (and old readers reject
// those with a clean "newer format version" Status rather than misparsing).
constexpr uint32_t kFormatVersion = 4;
constexpr uint32_t kSq8FormatVersion = 3;
constexpr uint32_t kFloat32FormatVersion = 2;

// The delta segment holds full-precision rows and is scanned exactly —
// tiny relative to the base, and exactness keeps pre-compaction float32
// results bit-identical to a from-scratch build.
IndexOptions DeltaOptions(const IndexOptions& base, Metric metric) {
  IndexOptions options;
  options.backend = IndexBackend::kFlat;
  options.storage = Storage::kFloat32;
  options.metric = metric;
  options.hnsw = base.hnsw;
  return options;
}

}  // namespace

LakeIndex::LakeIndex(size_t dim, const IndexOptions& options)
    : dim_(dim), index_(dim, options) {}

size_t LakeIndex::AddTable(const std::string& table_id,
                           const std::vector<std::vector<float>>& column_embeddings) {
  for (const auto& col : column_embeddings) {
    TSFM_CHECK_EQ(col.size(), dim_);
  }
  size_t handle = table_ids_.size();
  table_ids_.push_back(table_id);
  columns_.push_back(column_embeddings);
  dead_.push_back(0);
  handles_by_id_[table_id].push_back(handle);
  if (!sealed_) {
    index_.AddTable(handle, column_embeddings);
    base_tables_ = handle + 1;
  } else {
    if (delta_ == nullptr) {
      delta_ = std::make_unique<ColumnEmbeddingIndex>(
          dim_, DeltaOptions(index_.options(), index_.options().metric));
    }
    delta_->AddTable(handle, column_embeddings);
  }
  return handle;
}

void LakeIndex::Tombstone(size_t handle) {
  dead_[handle] = 1;
  ++dead_tables_;
  const size_t cols = columns_[handle].size();
  if (handle < base_tables_) {
    dead_base_columns_ += cols;
  } else {
    dead_delta_columns_ += cols;
  }
}

Status LakeIndex::RemoveTable(const std::string& table_id) {
  auto it = handles_by_id_.find(table_id);
  if (it != handles_by_id_.end()) {
    // Newest live handle wins; already-dead trailing handles are pruned so
    // repeated removes of a duplicated id stay O(removes).
    while (!it->second.empty() && dead_[it->second.back()] != 0) {
      it->second.pop_back();
    }
    if (!it->second.empty()) {
      const size_t handle = it->second.back();
      it->second.pop_back();
      Tombstone(handle);
      return Status::OK();
    }
  }
  return Status::NotFound("no live table with id \"" + table_id + "\"");
}

LakeIndex::Compacted LakeIndex::BuildCompacted() const {
  Compacted out{LakeIndex(dim_, index_.options()),
                std::vector<size_t>(table_ids_.size(), SIZE_MAX)};
  for (size_t handle = 0; handle < table_ids_.size(); ++handle) {
    if (dead_[handle] != 0) continue;
    // Survivors keep their relative insertion order, so re-densified
    // handles tie-break Fig 6 ranks exactly like a from-scratch build.
    out.remap[handle] = out.index.AddTable(table_ids_[handle], columns_[handle]);
  }
  out.index.Seal();
  return out;
}

std::vector<std::string> RankedTableIds(const std::vector<std::string>& table_ids,
                                        const std::vector<size_t>& handles,
                                        size_t k) {
  std::vector<std::string> out;
  out.reserve(std::min(k, handles.size()));
  for (size_t handle : handles) {
    if (out.size() >= k) break;
    out.push_back(table_ids[handle]);
  }
  return out;
}

void LakeIndex::FilterDead(std::vector<ColumnEmbeddingIndex::ColumnHit>* hits,
                           size_t m) const {
  std::erase_if(*hits, [&](const ColumnEmbeddingIndex::ColumnHit& hit) {
    return dead_[hit.table_id] != 0;
  });
  hits->resize(std::min(hits->size(), m));
}

std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
LakeIndex::SearchColumnsBatch(const std::vector<std::vector<float>>& queries,
                              size_t m, ThreadPool* pool) const {
  if (!churned()) return index_.SearchColumnsBatch(queries, m, pool);
  // Over-fetch by the tombstoned-column count: at most that many of the
  // top slots can be dead, so filtering still leaves m live hits whenever
  // m live columns exist (exact for flat scans; HNSW is approximate
  // regardless, and the budget keeps its candidate frontier honest).
  auto base = index_.SearchColumnsBatch(queries, m + dead_base_columns_, pool);
  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> delta;
  if (delta_ != nullptr) {
    delta = delta_->SearchColumnsBatch(queries, m + dead_delta_columns_, pool);
  }
  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> merged(
      queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> lists;
    lists.push_back(std::move(base[q]));
    FilterDead(&lists.back(), m);
    if (!delta.empty()) {
      lists.push_back(std::move(delta[q]));
      FilterDead(&lists.back(), m);
    }
    // Base handles precede delta handles, and both lists are sorted by
    // (distance, table, column), so the merge equals one sorted scan over
    // all live columns — bit-identical to an unchurned flat index holding
    // the same live tables under the same handles.
    merged[q] = TableRanker::MergeColumnHits(lists, m);
  }
  return merged;
}

Status LakeIndex::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const IndexOptions& opt = index_.options();
  const bool sq8 = opt.storage == Storage::kSq8;
  const bool churn = churned();
  const uint32_t version = churn ? kFormatVersion
                          : sq8    ? kSq8FormatVersion
                                   : kFloat32FormatVersion;
  WritePod(out, kMagicV2);
  WritePod(out, version);
  WritePod(out, static_cast<uint32_t>(opt.backend));
  WritePod(out, static_cast<uint32_t>(opt.metric));
  // Version >= 3 headers always carry the storage word (a churned float32
  // lake writes kFloat32 explicitly).
  if (version >= 3) WritePod(out, static_cast<uint32_t>(opt.storage));
  WritePod(out, static_cast<uint64_t>(opt.hnsw.m));
  WritePod(out, static_cast<uint64_t>(opt.hnsw.ef_construction));
  WritePod(out, static_cast<uint64_t>(opt.hnsw.ef_search));
  WritePod(out, opt.hnsw.seed);
  WritePod(out, static_cast<uint64_t>(dim_));
  if (sq8) {
    // Persist the live calibration (training it now if no search has yet),
    // so Load re-arms the index to encode exactly as this one does — even
    // for rows that were added after the codec was trained. Delta rows are
    // float on both sides, so the calibration describes the base only.
    const Sq8Codec* codec = index_.sq8_codec();
    TSFM_CHECK(codec != nullptr);
    if (Status s = codec->Save(out); !s.ok()) return s;
  }
  if (churn) {
    // Churn section: how many leading table records belong to the base
    // segment, then the tombstoned handles. Placed before the records so
    // Load can replay base and delta adds into the right segments.
    WritePod(out, static_cast<uint64_t>(base_tables_));
    WritePod(out, static_cast<uint64_t>(dead_tables_));
    for (size_t handle = 0; handle < dead_.size(); ++handle) {
      if (dead_[handle] != 0) WritePod(out, static_cast<uint64_t>(handle));
    }
  }
  WritePod(out, static_cast<uint64_t>(table_ids_.size()));
  for (size_t t = 0; t < table_ids_.size(); ++t) {
    uint64_t id_len = table_ids_[t].size();
    uint64_t num_cols = columns_[t].size();
    WritePod(out, id_len);
    out.write(table_ids_[t].data(), static_cast<std::streamsize>(id_len));
    WritePod(out, num_cols);
    for (const auto& col : columns_[t]) {
      out.write(reinterpret_cast<const char*>(col.data()),
                static_cast<std::streamsize>(col.size() * sizeof(float)));
    }
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<LakeIndex> LakeIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const auto file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  // Valid only while `in` is good (every caller has just read successfully).
  auto bytes_left = [&] {
    return file_size - static_cast<uint64_t>(in.tellg());
  };
  uint32_t magic = 0;
  if (!ReadPod(in, &magic)) return Status::IoError("truncated lake index " + path);

  IndexOptions options;  // legacy files predate backends: flat / cosine
  uint32_t version = 0;
  if (magic == kMagicV2) {
    uint32_t backend = 0, metric = 0, storage = 0;
    uint64_t m = 0, ef_construction = 0, ef_search = 0, seed = 0;
    if (!ReadPod(in, &version) || !ReadPod(in, &backend) ||
        !ReadPod(in, &metric)) {
      return Status::IoError("truncated lake-index header in " + path);
    }
    if (version > kFormatVersion) {
      return Status::ParseError("lake index " + path +
                                " written by a newer format version");
    }
    if (version >= 3 && !ReadPod(in, &storage)) {
      return Status::IoError("truncated lake-index header in " + path);
    }
    if (!ReadPod(in, &m) || !ReadPod(in, &ef_construction) ||
        !ReadPod(in, &ef_search) || !ReadPod(in, &seed)) {
      return Status::IoError("truncated lake-index header in " + path);
    }
    if (backend > static_cast<uint32_t>(IndexBackend::kHnsw) ||
        metric > static_cast<uint32_t>(Metric::kL2) ||
        storage > static_cast<uint32_t>(Storage::kSq8)) {
      return Status::ParseError("bad lake-index backend/metric in " + path);
    }
    options.backend = static_cast<IndexBackend>(backend);
    options.metric = static_cast<Metric>(metric);
    options.storage = static_cast<Storage>(storage);
    options.hnsw.m = static_cast<size_t>(m);
    options.hnsw.ef_construction = static_cast<size_t>(ef_construction);
    options.hnsw.ef_search = static_cast<size_t>(ef_search);
    options.hnsw.seed = seed;
  } else if (magic != kMagicV1) {
    return Status::ParseError("bad lake-index magic in " + path);
  }

  uint64_t dim = 0;
  if (!ReadPod(in, &dim)) {
    return Status::IoError("truncated lake index " + path);
  }
  if (dim == 0 || dim > (1u << 20)) return Status::ParseError("implausible dim");

  LakeIndex index(dim, options);
  if (version >= 3 && options.storage == Storage::kSq8) {
    auto codec = Sq8Codec::Load(in, dim);
    if (!codec.ok()) return codec.status();
    // Seed before the AddTable replay: every replayed (and future) row
    // encodes through the calibration the saved index used.
    index.index_.SeedSq8Codec(std::move(codec).value());
  }

  uint64_t base_tables = UINT64_MAX;  // v4 seals mid-replay at this count
  std::vector<uint64_t> tombstones;
  if (version >= 4) {
    uint64_t num_dead = 0;
    if (!ReadPod(in, &base_tables) || !ReadPod(in, &num_dead)) {
      return Status::IoError("truncated lake-index churn section in " + path);
    }
    tombstones.reserve(std::min<uint64_t>(num_dead, 1024));
    for (uint64_t i = 0; i < num_dead; ++i) {
      uint64_t handle = 0;
      if (!ReadPod(in, &handle)) {
        return Status::IoError("truncated lake-index churn section in " + path);
      }
      tombstones.push_back(handle);
    }
  }

  uint64_t num_tables = 0;
  if (!ReadPod(in, &num_tables)) {
    return Status::IoError("truncated lake index " + path);
  }
  if (base_tables != UINT64_MAX && base_tables > num_tables) {
    return Status::ParseError("lake index " + path +
                              " claims more base tables than tables");
  }
  for (uint64_t t = 0; t < num_tables; ++t) {
    if (t == base_tables) index.Seal();
    uint64_t id_len = 0, num_cols = 0;
    if (!ReadPod(in, &id_len)) return Status::IoError("truncated lake index " + path);
    // Check every length against the bytes left before allocating for it:
    // a hostile length must be a ParseError, not a std::bad_alloc.
    if (id_len > bytes_left()) {
      return Status::ParseError("lake index " + path +
                                " has a table id longer than the file");
    }
    std::string id(id_len, '\0');
    in.read(id.data(), static_cast<std::streamsize>(id_len));
    if (!ReadPod(in, &num_cols)) {
      return Status::IoError("truncated lake index " + path);
    }
    if (num_cols > bytes_left() / (dim * sizeof(float))) {
      return Status::ParseError("lake index " + path +
                                " has more columns than the file holds");
    }
    std::vector<std::vector<float>> cols(num_cols, std::vector<float>(dim));
    for (auto& col : cols) {
      in.read(reinterpret_cast<char*>(col.data()),
              static_cast<std::streamsize>(dim * sizeof(float)));
    }
    if (!in) return Status::IoError("truncated lake index " + path);
    index.AddTable(id, cols);
  }
  // Replay the tombstones directly: RemoveTable's newest-live-first rule
  // must not reshuffle which of several same-id handles died.
  for (uint64_t handle : tombstones) {
    if (handle >= index.table_ids_.size() || index.dead_[handle] != 0) {
      return Status::ParseError("lake index " + path +
                                " has an invalid or duplicate tombstone");
    }
    index.Tombstone(handle);
  }
  // A loaded lake is a serving artifact: later AddTable calls are live
  // churn and belong in the delta segment.
  index.Seal();
  return index;
}

}  // namespace tsfm::search
