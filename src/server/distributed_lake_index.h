// Distributed data-lake index (ROADMAP "Distributed shards"): the
// ShardedLakeIndex scatter/gather path stretched across process
// boundaries. Each shard of a saved "LAKS" lake runs as its own
// lake_shard_worker process serving one shard file over the AF_UNIX wire
// protocol; this coordinator opens only the manifest, handshakes every
// worker, and answers the same join/union batch surface through the query
// core the in-process index uses (TableRanker::ScatterMergeRank). Its
// shard searcher sends each worker ONE SHARD_QUERY frame per batch, and
// splits a batch over more frames only when the request (columns x dim x
// 4 B) or the worst-case response (columns x m x 16 B) would cross
// DistributedOptions::max_frame_bytes.
//
// Parity: a SHARD_QUERY returns each worker's sorted top-m column hits in
// its local handle space with precomputed query embeddings on the wire (so
// workers never re-embed); the coordinator remaps local handles through
// the manifest's locator (a search::HandleMap, as in ShardedLakeIndex)
// into the global insertion order, which makes flat-backend results
// bit-identical to the in-process sharded index over the same shard files
// (tests/distributed_lake_index_test.cc proves this at 1/2/4 workers).
//
// Failure semantics: every per-shard round trip is bounded by
// DistributedOptions::shard_timeout_ms, and a transport failure (worker
// killed, socket gone, timeout) is retried once on a fresh connection.
// When the retry also fails the query returns a Status error *naming the
// shard and its socket* — never a hang, and never a silently partial
// result. Server-side errors (e.g. a dim mismatch) are not retried.
#ifndef TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_
#define TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "search/vector_index.h"
#include "server/protocol.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::server {

/// \brief Coordinator knobs.
///
/// `shard_timeout_ms` bounds each socket send/recv of a worker round trip
/// (a wedged worker — whether it stops writing or stops reading — surfaces
/// as a kIoError naming the shard, not a coordinator hang).
/// `max_idle_connections_per_shard` caps the pooled connections kept warm
/// per worker; concurrent queries above the cap open short-lived extras.
struct DistributedOptions {
  int shard_timeout_ms = 5000;
  size_t max_idle_connections_per_shard = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Point-in-time churn counters (the shape of the v3 STATS churn fields).
/// Defined here rather than in backend.h so the coordinator can report
/// them without depending on the serving seam.
struct LakeChurnCounters {
  uint64_t pending_delta_tables = 0;
  uint64_t pending_tombstones = 0;
  uint64_t compactions = 0;
};

/// \brief A ShardedLakeIndex-shaped query surface over worker processes.
///
/// Construct with Connect. Query methods mirror ShardedLakeIndex's batch
/// entry points (a single query is a batch of one; an optional ThreadPool
/// fans the scatter out over workers) but return Result: a dead or
/// mismatched worker is a recoverable error naming the shard, not a crash.
/// All query methods are const-thread-safe; the connection pool grows on
/// demand. Movable, not copyable.
class DistributedLakeIndex {
 public:
  /// \brief Opens the manifest, handshakes every worker, builds the global
  /// handle space.
  ///
  /// `worker_sockets[s]` must serve shard s of `manifest_path` (one socket
  /// per manifest shard file, same order). The handshake rejects, naming
  /// the shard: a worker that cannot be reached, speaks a different
  /// protocol version, disagrees with the manifest on backend/metric/dim,
  /// or reports a table count that contradicts the manifest's locator.
  ///
  /// Scale ceiling: the handshake fetches each worker's full table-id
  /// list in one SHARD_TABLES frame, so a single shard is limited to the
  /// protocol's 2^20 ids-per-message cap (and `max_frame_bytes` of id
  /// bytes) — far below the manifest format's 2^32-table ceiling that the
  /// in-process loader supports. Lakes beyond ~1M tables per shard need
  /// more shards until the handshake learns to page (see ROADMAP).
  static Result<DistributedLakeIndex> Connect(
      const std::string& manifest_path,
      const std::vector<std::string>& worker_sockets,
      const DistributedOptions& options = {});

  DistributedLakeIndex(DistributedLakeIndex&&) noexcept;
  DistributedLakeIndex& operator=(DistributedLakeIndex&&) noexcept;
  ~DistributedLakeIndex();

  DistributedLakeIndex(const DistributedLakeIndex&) = delete;
  DistributedLakeIndex& operator=(const DistributedLakeIndex&) = delete;

  /// Ranked table ids per join query (one column each). The batch is one
  /// scatter: every worker gets one SHARD_QUERY frame (more only past the
  /// frame ceiling), workers fanned out over `pool`. Any shard failure
  /// fails the whole batch with a Status naming the shard and its socket.
  Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const;

  /// Ranked table ids per union/subset query (Fig 6 multi-column rank);
  /// all queries' columns share one scatter, with the same failure rule.
  Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool = nullptr) const;

  /// Fresh HEALTH from every worker, indexed by shard.
  Result<std::vector<ShardHealth>> Health() const;

  /// Worker STATS summed across shards (requests/batches/waits/latency).
  Result<ServerStats> AggregateStats() const;

  /// \brief Live-ingests one table: forwards ADD_TABLE to the owning shard
  /// worker (StableShard routing) and mirrors the new handle locally.
  ///
  /// Mutations through the coordinator require the lake to have been
  /// connected unchurned (a compacted or freshly built manifest): the
  /// handshake cannot see per-handle tombstones, so a churned connect
  /// disables mutations with a clean error. Mutations are never retried —
  /// a transport failure mid-mutation leaves worker and coordinator
  /// bookkeeping possibly diverged, so further mutations are refused until
  /// a fresh Connect (queries stay available).
  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns);

  /// Tombstones the newest live table named `table_id` on its owning shard
  /// and in the local maps. kNotFound when no live table has that id.
  Status RemoveTable(const std::string& table_id);

  /// \brief Sends COMPACT to every worker, then re-densifies the global
  /// handle maps to mirror the workers' full rebuilds (survivors keep
  /// their per-shard insertion order).
  ///
  /// On a partial failure the coordinator's maps are left at the old
  /// epoch and mutations are disabled (reconnect to recover) — some
  /// workers may have compacted, so the handle spaces no longer line up.
  Status Compact(ThreadPool* pool = nullptr);

  /// Coordinator-side churn counters (pending deltas/tombstones mirrored
  /// from the mutations issued through this coordinator).
  LakeChurnCounters Churn() const;

  size_t num_shards() const;
  size_t num_tables() const;
  size_t num_columns() const;
  size_t dim() const;
  search::IndexBackend backend() const;
  search::Metric metric() const;
  /// The id behind a global handle (a copy: the maps may be re-densified
  /// by a concurrent Compact).
  std::string table_id(size_t handle) const;
  /// Every id in handle order, from one epoch of the handle map.
  std::vector<std::string> table_ids() const;
  const std::string& worker_socket(size_t shard) const;

 private:
  // All locking lives on State (see the .cc): it is a complete type there,
  // so the thread-safety annotations can name its capabilities directly.
  struct State;

  explicit DistributedLakeIndex(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_
