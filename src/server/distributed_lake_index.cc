#include "server/distributed_lake_index.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "search/lake_index.h"
#include "search/lake_manifest.h"
#include "search/table_ranker.h"
#include "server/lake_client.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace tsfm::server {

using search::HandleMap;
using search::TableRanker;

namespace {

/// One worker endpoint with its pool of warm connections. Heap-allocated
/// (the mutex pins it) and shared-fate: a transport failure drops every
/// idle connection, since they all point at the same dead process.
struct ShardEndpoint {
  std::string socket_path;
  Mutex mu;
  std::vector<std::unique_ptr<LakeClient>> idle LAKS_GUARDED_BY(mu);
};

// id -> handles bearing it, oldest first: the coordinator's mirror of
// each worker's newest-live RemoveTable rule.
std::unordered_map<std::string, std::vector<size_t>> HandlesById(
    const HandleMap& handles) {
  std::unordered_map<std::string, std::vector<size_t>> by_id;
  for (size_t h = 0; h < handles.size(); ++h) {
    by_id[handles.id(h)].push_back(h);
  }
  return by_id;
}

}  // namespace

struct DistributedLakeIndex::State {
  // options through shards are written only by Connect, before the State
  // is published behind a DistributedLakeIndex; afterwards they are
  // immutable (the ShardEndpoint objects carry their own locks), so they
  // are read without a lock.
  DistributedOptions options;
  search::IndexBackend backend = search::IndexBackend::kFlat;
  search::Metric metric = search::Metric::kCosine;
  size_t dim = 0;
  std::vector<std::unique_ptr<ShardEndpoint>> shards;

  // Lock order: writer_mu before maps_mu (before any ShardEndpoint::mu).
  //
  // `maps_mu` pins a map epoch: queries hold it shared across their whole
  // scatter+remap+rank so a concurrent Compact's map swap (unique) can
  // never tear a result. `writer_mu` serializes mutations against each
  // other; the churn mirror (the coordinator's copy of each worker's
  // tombstones and newest-live rule) is guarded by it alone, since no
  // query ever reads it.
  Mutex writer_mu;
  mutable SharedMutex maps_mu LAKS_ACQUIRED_AFTER(writer_mu);

  size_t num_columns LAKS_GUARDED_BY(maps_mu) = 0;
  HandleMap handles LAKS_GUARDED_BY(maps_mu);
  uint64_t pending_delta_tables LAKS_GUARDED_BY(maps_mu) = 0;
  uint64_t pending_tombstones LAKS_GUARDED_BY(maps_mu) = 0;
  uint64_t compactions LAKS_GUARDED_BY(maps_mu) = 0;

  // --- churn mirror, guarded by writer_mu only ---
  // handle -> tombstoned?
  std::vector<uint8_t> dead LAKS_GUARDED_BY(writer_mu);
  std::unordered_map<std::string, std::vector<size_t>> handles_by_id
      LAKS_GUARDED_BY(writer_mu);
  // Cleared when Connect finds a churned manifest: the handshake cannot
  // see which handles the workers have tombstoned, so the coordinator's
  // newest-live bookkeeping could diverge from theirs. Queries still work.
  bool mutable_ok LAKS_GUARDED_BY(writer_mu) = true;
  // Set when a mutation fails after it may have reached a worker: the
  // coordinator's maps may disagree with worker handle spaces, so further
  // mutations are refused until a fresh Connect (queries stay available
  // against the old epoch).
  bool mutations_broken LAKS_GUARDED_BY(writer_mu) = false;

  /// Ranked ids per query through TableRanker's query core, under one
  /// shared map epoch. Lives on State (not the public class) so the lock
  /// annotations can name maps_mu directly.
  template <typename Query>
  Result<std::vector<std::vector<std::string>>> QueryBatch(
      const std::vector<Query>& queries, size_t k, ThreadPool* pool)
      LAKS_EXCLUDES(maps_mu);

  /// The coordinator's shard searcher: `columns` to worker `s` in
  /// SHARD_QUERY frames, hits remapped through `map` (pinned by the
  /// caller's shared lock).
  Result<TableRanker::HitLists> SearchShard(
      size_t s, const HandleMap& map,
      const std::vector<std::vector<float>>& columns, size_t m);

  Status Annotate(size_t shard, const Status& status) const {
    return Status(status.code(), "shard " + std::to_string(shard) + " (" +
                                     shards[shard]->socket_path +
                                     "): " + status.message());
  }

  Result<std::unique_ptr<LakeClient>> Acquire(size_t shard) {
    ShardEndpoint& ep = *shards[shard];
    {
      MutexLock lock(&ep.mu);
      if (!ep.idle.empty()) {
        auto client = std::move(ep.idle.back());
        ep.idle.pop_back();
        return client;
      }
    }
    auto client = std::make_unique<LakeClient>(options.max_frame_bytes);
    client->set_timeout_ms(options.shard_timeout_ms);
    if (Status s = client->Connect(ep.socket_path); !s.ok()) return s;
    return client;
  }

  void Release(size_t shard, std::unique_ptr<LakeClient> client) {
    if (client == nullptr || !client->connected()) return;
    ShardEndpoint& ep = *shards[shard];
    MutexLock lock(&ep.mu);
    if (ep.idle.size() < options.max_idle_connections_per_shard) {
      ep.idle.push_back(std::move(client));
    }
  }

  // A dead worker invalidates every pooled connection to it at once;
  // dropping them makes the retry below connect fresh instead of cycling
  // through stale fds.
  void DropIdle(size_t shard) {
    ShardEndpoint& ep = *shards[shard];
    MutexLock lock(&ep.mu);
    ep.idle.clear();
  }

  /// \brief Runs `fn(client)` against shard `shard` with retry-once.
  ///
  /// A transport failure (the client closed its connection: worker died,
  /// timeout, stale socket) drops the shard's idle pool and retries once
  /// on a fresh connection — queries are idempotent reads, so a resend is
  /// safe. A server-side error (connection still open) is deterministic
  /// and returned immediately. Every error is annotated with the shard
  /// number and socket path.
  template <typename Fn>
  auto CallShard(size_t shard, Fn&& fn) -> decltype(fn(
      std::declval<LakeClient&>())) {
    Status last = Status::OK();
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto conn = Acquire(shard);
      if (!conn.ok()) {
        last = conn.status();
        DropIdle(shard);
        continue;
      }
      std::unique_ptr<LakeClient> client = std::move(conn).value();
      auto result = fn(*client);
      const bool transport_failure = !result.ok() && !client->connected();
      Release(shard, std::move(client));
      if (result.ok()) return result;
      if (!transport_failure) return Annotate(shard, result.status());
      last = result.status();
      DropIdle(shard);
    }
    return Annotate(shard, last);
  }

  /// \brief Runs a Status-returning mutation against shard `shard`,
  /// exactly once.
  ///
  /// Mutations are not idempotent, so unlike CallShard a transport
  /// failure is never retried: if the request may have reached the worker
  /// (the connection dropped after the send), `*maybe_applied` is set and
  /// the caller must treat the coordinator's bookkeeping as suspect. A
  /// failure to even connect leaves `*maybe_applied` false — the mutation
  /// definitely did not happen.
  template <typename Fn>
  Status CallShardMutation(size_t shard, bool* maybe_applied, Fn&& fn) {
    *maybe_applied = false;
    auto conn = Acquire(shard);
    if (!conn.ok()) {
      DropIdle(shard);
      return Annotate(shard, conn.status());
    }
    std::unique_ptr<LakeClient> client = std::move(conn).value();
    Status status = fn(*client);
    const bool transport_failure = !status.ok() && !client->connected();
    Release(shard, std::move(client));
    if (transport_failure) {
      *maybe_applied = true;
      DropIdle(shard);
    }
    return status.ok() ? status : Annotate(shard, status);
  }
};

DistributedLakeIndex::DistributedLakeIndex(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

DistributedLakeIndex::DistributedLakeIndex(DistributedLakeIndex&&) noexcept =
    default;
DistributedLakeIndex& DistributedLakeIndex::operator=(
    DistributedLakeIndex&&) noexcept = default;
DistributedLakeIndex::~DistributedLakeIndex() = default;

size_t DistributedLakeIndex::num_shards() const { return state_->shards.size(); }
size_t DistributedLakeIndex::num_tables() const {
  State& st = *state_;
  ReaderMutexLock lock(&st.maps_mu);
  return st.handles.size();
}
size_t DistributedLakeIndex::num_columns() const {
  State& st = *state_;
  ReaderMutexLock lock(&st.maps_mu);
  return st.num_columns;
}
size_t DistributedLakeIndex::dim() const { return state_->dim; }
search::IndexBackend DistributedLakeIndex::backend() const {
  return state_->backend;
}
search::Metric DistributedLakeIndex::metric() const { return state_->metric; }
std::string DistributedLakeIndex::table_id(size_t handle) const {
  State& st = *state_;
  ReaderMutexLock lock(&st.maps_mu);
  return st.handles.id(handle);
}
std::vector<std::string> DistributedLakeIndex::table_ids() const {
  State& st = *state_;
  ReaderMutexLock lock(&st.maps_mu);
  return st.handles.ids();
}
const std::string& DistributedLakeIndex::worker_socket(size_t shard) const {
  return state_->shards[shard]->socket_path;
}

Result<DistributedLakeIndex> DistributedLakeIndex::Connect(
    const std::string& manifest_path,
    const std::vector<std::string>& worker_sockets,
    const DistributedOptions& options) {
  Result<search::LakeManifest> parsed =
      search::LoadLakeManifest(manifest_path);
  if (!parsed.ok()) return parsed.status();
  const search::LakeManifest manifest = std::move(parsed).value();
  if (worker_sockets.size() != manifest.num_shards()) {
    return Status::InvalidArgument(
        "manifest " + manifest_path + " has " +
        std::to_string(manifest.num_shards()) + " shards but " +
        std::to_string(worker_sockets.size()) + " worker sockets were given");
  }

  auto state = std::make_unique<State>();
  State& st = *state;
  // `st` is not visible to any other thread until the return publishes it;
  // the locks are uncontended and exist for the checker. Lock order
  // writer_mu -> maps_mu as everywhere else.
  MutexLock writer(&st.writer_mu);
  WriterMutexLock maps_lock(&st.maps_mu);
  state->options = options;
  state->backend = manifest.backend;
  state->metric = manifest.metric;
  state->dim = static_cast<size_t>(manifest.dim);
  state->shards.reserve(worker_sockets.size());
  for (const std::string& socket_path : worker_sockets) {
    auto ep = std::make_unique<ShardEndpoint>();
    ep->socket_path = socket_path;
    state->shards.push_back(std::move(ep));
  }

  // Handshake every worker: health must agree with the manifest, and the
  // table list sizes must match the locator before the global handle space
  // can be trusted.
  const size_t num_shards = state->shards.size();
  // Per-shard table counts from one locator pass up front.
  std::vector<size_t> expected_counts(num_shards, 0);
  for (const auto& [shard, local] : manifest.locator) ++expected_counts[shard];
  std::vector<std::vector<std::string>> shard_tables(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Result<ShardHealth> health = state->CallShard(
        s, [](LakeClient& client) { return client.Health(); });
    if (!health.ok()) return health.status();
    const ShardHealth& h = health.value();
    auto reject = [&](const std::string& what) {
      return state->Annotate(s, Status::InvalidArgument(what));
    };
    if (h.protocol_version != kProtocolVersion) {
      return reject("worker speaks protocol version " +
                    std::to_string(h.protocol_version) +
                    ", coordinator requires " +
                    std::to_string(kProtocolVersion));
    }
    if (h.dim != manifest.dim) {
      return reject("worker dim " + std::to_string(h.dim) +
                    " disagrees with manifest dim " +
                    std::to_string(manifest.dim));
    }
    if (h.backend != static_cast<uint8_t>(manifest.backend) ||
        h.metric != static_cast<uint8_t>(manifest.metric)) {
      return reject("worker backend/metric disagrees with the manifest");
    }
    const size_t expected_tables = expected_counts[s];
    if (h.num_tables != expected_tables) {
      return reject("worker holds " + std::to_string(h.num_tables) +
                    " tables, manifest routes " +
                    std::to_string(expected_tables) + " to this shard");
    }
    Result<std::vector<std::string>> tables = state->CallShard(
        s, [](LakeClient& client) { return client.ShardTables(); });
    if (!tables.ok()) return tables.status();
    if (tables.value().size() != expected_tables) {
      return reject("worker table list disagrees with its health counters");
    }
    shard_tables[s] = std::move(tables).value();
    st.num_columns += static_cast<size_t>(h.num_columns);
  }

  // Rebuild the global handle space in insertion order from the locator,
  // exactly as ShardedLakeIndex::Load does — this is what keeps the Fig 6
  // tie-breaking identical between the two deployments.
  Result<HandleMap> handles = HandleMap::FromLocator(
      manifest.locator, std::move(shard_tables), manifest_path);
  if (!handles.ok()) return handles.status();
  st.handles = std::move(handles).value();
  st.handles_by_id = HandlesById(st.handles);
  st.dead.assign(st.handles.size(), 0);
  // A churned manifest means the workers carry tombstones this handshake
  // cannot see, so the coordinator's newest-live bookkeeping would
  // diverge from theirs: serve queries, refuse mutations.
  if (manifest.live_tables < manifest.num_tables()) {
    st.mutable_ok = false;
    st.pending_tombstones = manifest.num_tables() - manifest.live_tables;
  }
  // The guards only reference st, which the moved-from unique_ptr leaves
  // alive (it now lives behind the returned index), so unlocking at scope
  // exit is safe.
  return DistributedLakeIndex(std::move(state));
}

Result<TableRanker::HitLists> DistributedLakeIndex::State::SearchShard(
    size_t s, const HandleMap& map,
    const std::vector<std::vector<float>>& columns, size_t m) {
  // One frame for the whole batch, unless its request (dim floats per
  // column) or its worst-case response (m 16-byte hits per column) would
  // cross max_frame_bytes.
  constexpr size_t kEnvelopeBytes = 64;  // headers, counts, status
  constexpr size_t kHitBytes =
      sizeof(uint64_t) + sizeof(uint32_t) + sizeof(float);
  const size_t dim = columns.empty() ? 0 : columns[0].size();
  const size_t per_column =
      std::max(dim * sizeof(float), sizeof(uint32_t) + m * kHitBytes);
  const size_t budget =
      std::max(options.max_frame_bytes, kEnvelopeBytes) - kEnvelopeBytes;
  const size_t per_frame =
      std::clamp<size_t>(budget / per_column, 1, kMaxMessageColumns);
  TableRanker::HitLists out;
  out.reserve(columns.size());
  // A batch that fits one frame goes as is; only a split batch is sliced.
  std::vector<std::vector<float>> slice;
  for (size_t begin = 0; begin < columns.size(); begin += per_frame) {
    const size_t end = std::min(columns.size(), begin + per_frame);
    const bool whole = begin == 0 && end == columns.size();
    if (!whole) slice.assign(columns.begin() + begin, columns.begin() + end);
    const std::vector<std::vector<float>>& frame = whole ? columns : slice;
    auto lists = CallShard(
        s, [&](LakeClient& client) { return client.ShardQuery(frame, m); });
    if (!lists.ok()) return lists.status();
    if (lists.value().size() != frame.size()) {
      return Annotate(
          s, Status::ParseError("worker answered " +
                                std::to_string(lists.value().size()) +
                                " hit lists for " +
                                std::to_string(frame.size()) + " columns"));
    }
    // Local handles are insertion-ordered, so the remap is monotone and
    // each list stays sorted by (distance, table, column).
    for (const std::vector<ShardHit>& list : lists.value()) {
      auto& hits = out.emplace_back();
      hits.reserve(list.size());
      for (const ShardHit& hit : list) {
        if (hit.table >= map.shard_size(s)) {
          return Annotate(
              s, Status::ParseError("worker returned unknown table handle " +
                                    std::to_string(hit.table)));
        }
        hits.push_back({map.global(s, hit.table), hit.column, hit.distance});
      }
    }
  }
  return out;
}

template <typename Query>
Result<std::vector<std::vector<std::string>>>
DistributedLakeIndex::State::QueryBatch(const std::vector<Query>& queries,
                                        size_t k, ThreadPool* pool) {
  // Pin one map epoch across the whole scatter+remap+rank: a concurrent
  // Compact re-densifies the map under the unique side of this lock. The
  // searcher runs on pool threads, so it captures an alias bound under it.
  ReaderMutexLock lock(&maps_mu);
  const HandleMap& map = handles;
  auto ranked = TableRanker::ScatterMergeRank(
      queries, k, /*excludes=*/{}, shards.size(),
      [this, &map](size_t s, const std::vector<std::vector<float>>& columns,
                   size_t m) { return SearchShard(s, map, columns, m); },
      pool);
  if (!ranked.ok()) return ranked.status();
  return map.RankedIds(ranked.value(), k);
}

Result<std::vector<std::vector<std::string>>>
DistributedLakeIndex::QueryJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  return state_->QueryBatch(query_columns, k, pool);
}

Result<std::vector<std::vector<std::string>>>
DistributedLakeIndex::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  return state_->QueryBatch(queries, k, pool);
}

namespace {

// Gate shared by every coordinator mutation; callers hold writer_mu.
Status MutationGate(bool mutable_ok, bool mutations_broken) {
  if (!mutable_ok) {
    return Status::InvalidArgument(
        "coordinator connected to a churned manifest; compact the lake "
        "before serving mutations through a coordinator");
  }
  if (mutations_broken) {
    return Status::Internal(
        "a previous mutation failed in flight and coordinator bookkeeping "
        "may disagree with the workers; reconnect to recover");
  }
  return Status::OK();
}

}  // namespace

Status DistributedLakeIndex::AddTable(
    const std::string& table_id, const std::vector<std::vector<float>>& columns) {
  State& st = *state_;
  MutexLock writer(&st.writer_mu);
  if (Status s = MutationGate(st.mutable_ok, st.mutations_broken); !s.ok()) {
    return s;
  }
  const size_t shard = StableShard(table_id, st.shards.size());
  bool maybe_applied = false;
  Status sent = st.CallShardMutation(shard, &maybe_applied,
                                     [&](LakeClient& client) {
                                       return client.AddTable(table_id, columns);
                                     });
  if (!sent.ok()) {
    // A server-side rejection (dim mismatch, ...) did not mutate the
    // worker; only a maybe-delivered send poisons the bookkeeping.
    st.mutations_broken = maybe_applied;
    return sent;
  }
  WriterMutexLock lock(&st.maps_mu);
  st.handles_by_id[table_id].push_back(st.handles.Append(shard, table_id));
  st.dead.push_back(0);
  st.num_columns += columns.size();
  ++st.pending_delta_tables;
  return Status::OK();
}

Status DistributedLakeIndex::RemoveTable(const std::string& table_id) {
  State& st = *state_;
  MutexLock writer(&st.writer_mu);
  if (Status s = MutationGate(st.mutable_ok, st.mutations_broken); !s.ok()) {
    return s;
  }
  // Resolve the victim locally first (the coordinator mirrors the owning
  // worker's newest-live rule, so a miss here needs no wire trip).
  size_t victim = SIZE_MAX;
  auto it = st.handles_by_id.find(table_id);
  if (it != st.handles_by_id.end() && !it->second.empty()) {
    victim = it->second.back();
  }
  if (victim == SIZE_MAX) {
    return Status::NotFound("no live table with id \"" + table_id + "\"");
  }
  const size_t shard = StableShard(table_id, st.shards.size());
  bool maybe_applied = false;
  Status sent = st.CallShardMutation(
      shard, &maybe_applied,
      [&](LakeClient& client) { return client.RemoveTable(table_id); });
  if (!sent.ok()) {
    // The worker disagreeing that the table exists is also divergence.
    st.mutations_broken = maybe_applied || sent.code() == StatusCode::kNotFound;
    return sent;
  }
  WriterMutexLock lock(&st.maps_mu);
  st.dead[victim] = 1;
  it->second.pop_back();
  if (it->second.empty()) st.handles_by_id.erase(it);
  ++st.pending_tombstones;
  return Status::OK();
}

Status DistributedLakeIndex::Compact(ThreadPool* pool) {
  State& st = *state_;
  MutexLock writer(&st.writer_mu);
  if (Status s = MutationGate(st.mutable_ok, st.mutations_broken); !s.ok()) {
    return s;
  }
  const size_t num_shards = st.shards.size();

  // Phase 1: every worker folds its deltas + tombstones (full rebuild of
  // churned shards, so the remap below is deterministic). A partial
  // success leaves worker handle spaces out of step with these maps, so
  // any failure disables further mutations until a fresh Connect.
  std::vector<Status> compacted(num_shards, Status::OK());
  std::vector<uint8_t> applied(num_shards, 0);
  auto compact_shard = [&](size_t s) {
    bool maybe_applied = false;
    compacted[s] = st.CallShardMutation(
        s, &maybe_applied, [](LakeClient& client) { return client.Compact(); });
    applied[s] = compacted[s].ok() || maybe_applied;
  };
  if (pool != nullptr && num_shards > 1) {
    ParallelFor(pool, 0, num_shards, compact_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) compact_shard(s);
  }
  size_t first_failure = num_shards;
  bool any_applied = false;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!compacted[s].ok() && first_failure == num_shards) first_failure = s;
    if (applied[s]) any_applied = true;
  }
  if (first_failure != num_shards) {
    // Only a clean sweep of server-side rejections (nothing applied
    // anywhere) leaves the old epoch intact and retryable.
    if (any_applied) st.mutations_broken = true;
    return compacted[first_failure];
  }

  // Phase 2: re-densify the handle map as each worker's full rebuild did
  // (survivors keep their per-shard order), so the new local handle spaces
  // line up without another table-list fetch, and check every worker's
  // table count against it. Built under the shared lock (queries keep
  // running); writer_mu, held since entry, keeps read-build-swap atomic
  // against other mutations across the lock-upgrade gap below.
  HandleMap densified;
  {
    ReaderMutexLock maps_lock(&st.maps_mu);
    const std::vector<uint8_t>& dead = st.dead;
    densified = st.handles.Compacted([&](size_t h) { return dead[h] == 0; });
  }
  size_t live_columns = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    Result<ShardHealth> health = st.CallShard(
        s, [](LakeClient& client) { return client.Health(); });
    if (!health.ok()) {
      st.mutations_broken = true;
      return health.status();
    }
    if (health.value().num_tables != densified.shard_size(s)) {
      st.mutations_broken = true;
      return st.Annotate(
          s, Status::Internal(
                 "worker holds " + std::to_string(health.value().num_tables) +
                 " tables after compaction, coordinator expected " +
                 std::to_string(densified.shard_size(s)) +
                 "; reconnect to recover"));
    }
    live_columns += static_cast<size_t>(health.value().num_columns);
  }

  // Phase 3: swap the new epoch in.
  std::unordered_map<std::string, std::vector<size_t>> handles_by_id =
      HandlesById(densified);
  WriterMutexLock lock(&st.maps_mu);
  st.handles = std::move(densified);
  st.handles_by_id = std::move(handles_by_id);
  st.dead.assign(st.handles.size(), 0);
  st.num_columns = live_columns;
  st.pending_delta_tables = 0;
  st.pending_tombstones = 0;
  ++st.compactions;
  return Status::OK();
}

LakeChurnCounters DistributedLakeIndex::Churn() const {
  State& st = *state_;
  ReaderMutexLock lock(&st.maps_mu);
  LakeChurnCounters counters;
  counters.pending_delta_tables = st.pending_delta_tables;
  counters.pending_tombstones = st.pending_tombstones;
  counters.compactions = st.compactions;
  return counters;
}

Result<std::vector<ShardHealth>> DistributedLakeIndex::Health() const {
  std::vector<ShardHealth> health(state_->shards.size());
  for (size_t s = 0; s < state_->shards.size(); ++s) {
    Result<ShardHealth> one = state_->CallShard(
        s, [](LakeClient& client) { return client.Health(); });
    if (!one.ok()) return one.status();
    health[s] = std::move(one).value();
  }
  return health;
}

Result<ServerStats> DistributedLakeIndex::AggregateStats() const {
  ServerStats total;
  for (size_t s = 0; s < state_->shards.size(); ++s) {
    Result<ServerStats> one = state_->CallShard(
        s, [](LakeClient& client) { return client.Stats(); });
    if (!one.ok()) return one.status();
    const ServerStats& stats = one.value();
    total.requests += stats.requests;
    total.batches += stats.batches;
    total.max_batch = std::max(total.max_batch, stats.max_batch);
    total.total_queue_wait_ms += stats.total_queue_wait_ms;
    total.total_latency_ms += stats.total_latency_ms;
    total.pending_delta_tables += stats.pending_delta_tables;
    total.pending_tombstones += stats.pending_tombstones;
    total.compactions += stats.compactions;
  }
  return total;
}

}  // namespace tsfm::server
