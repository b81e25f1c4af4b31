#include "server/backend.h"

#include <utility>

namespace tsfm::server {

Result<std::vector<std::vector<std::string>>>
InProcessBackend::QueryJoinableBatch(
    const std::vector<std::vector<float>>& queries, size_t k,
    ThreadPool* pool) const {
  return index_.QueryJoinableBatch(queries, k, pool);
}

Result<std::vector<std::vector<std::string>>>
InProcessBackend::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  return index_.QueryUnionableBatch(queries, k, pool);
}

Result<std::vector<std::vector<ShardHit>>> InProcessBackend::ShardQuery(
    const std::vector<std::vector<float>>& columns, size_t m,
    ThreadPool* pool) const {
  // One batched scatter for all columns in the frame: each shard streams
  // its rows once for the whole SHARD_QUERY instead of once per column.
  std::vector<std::vector<ShardHit>> hits(columns.size());
  auto merged = index_.SearchColumnHitsBatch(columns, m, pool);
  for (size_t c = 0; c < columns.size(); ++c) {
    hits[c].reserve(merged[c].size());
    for (const auto& hit : merged[c]) {
      hits[c].push_back({static_cast<uint64_t>(hit.table_id),
                         static_cast<uint32_t>(hit.column_index),
                         hit.distance});
    }
  }
  return hits;
}

Result<std::vector<std::string>> InProcessBackend::TableIds() const {
  std::vector<std::string> ids;
  ids.reserve(index_.num_tables());
  for (size_t h = 0; h < index_.num_tables(); ++h) {
    ids.push_back(index_.table_id(h));
  }
  return ids;
}

ShardHealth InProcessBackend::Health() const {
  ShardHealth health;
  health.protocol_version = kProtocolVersion;
  health.backend = static_cast<uint8_t>(index_.options().backend);
  health.metric = static_cast<uint8_t>(index_.options().metric);
  health.dim = index_.dim();
  health.num_tables = index_.num_tables();
  health.num_columns = index_.num_columns();
  return health;
}

Status InProcessBackend::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& columns) {
  index_.AddTable(table_id, columns);
  return Status::OK();
}

Status InProcessBackend::RemoveTable(const std::string& table_id) {
  return index_.RemoveTable(table_id);
}

Status InProcessBackend::Compact(ThreadPool* pool) {
  // Compaction rebuilds churned shards from scratch, so a coordinator
  // fronting this worker can mirror the handle remap locally.
  return index_.Compact(pool);
}

LakeBackend::ChurnCounters InProcessBackend::Churn() const {
  ChurnCounters counters;
  counters.pending_delta_tables = index_.pending_delta_tables();
  counters.pending_tombstones = index_.pending_tombstones();
  counters.compactions = index_.compactions();
  return counters;
}

Result<std::vector<std::vector<std::string>>>
DistributedBackend::QueryJoinableBatch(
    const std::vector<std::vector<float>>& queries, size_t k,
    ThreadPool* pool) const {
  return index_.QueryJoinableBatch(queries, k, pool);
}

Result<std::vector<std::vector<std::string>>>
DistributedBackend::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  return index_.QueryUnionableBatch(queries, k, pool);
}

Result<std::vector<std::vector<ShardHit>>> DistributedBackend::ShardQuery(
    const std::vector<std::vector<float>>& columns, size_t m,
    ThreadPool* pool) const {
  (void)columns;
  (void)m;
  (void)pool;
  return Status::Unimplemented(
      "this server fronts a distributed coordinator; it is not itself a "
      "shard worker");
}

Result<std::vector<std::string>> DistributedBackend::TableIds() const {
  std::vector<std::string> ids;
  ids.reserve(index_.num_tables());
  for (size_t h = 0; h < index_.num_tables(); ++h) {
    ids.push_back(index_.table_id(h));
  }
  return ids;
}

ShardHealth DistributedBackend::Health() const {
  ShardHealth health;
  health.protocol_version = kProtocolVersion;
  health.backend = static_cast<uint8_t>(index_.backend());
  health.metric = static_cast<uint8_t>(index_.metric());
  health.dim = index_.dim();
  health.num_tables = index_.num_tables();
  health.num_columns = index_.num_columns();
  return health;
}

Status DistributedBackend::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& columns) {
  return index_.AddTable(table_id, columns);
}

Status DistributedBackend::RemoveTable(const std::string& table_id) {
  return index_.RemoveTable(table_id);
}

Status DistributedBackend::Compact(ThreadPool* pool) {
  return index_.Compact(pool);
}

LakeBackend::ChurnCounters DistributedBackend::Churn() const {
  return index_.Churn();
}

}  // namespace tsfm::server
