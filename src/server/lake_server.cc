#include "server/lake_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "server/net_util.h"
#include "util/thread_pool.h"

namespace tsfm::server {

using internal::FillUnixSockaddr;
using internal::MsSince;
using Clock = internal::SteadyClock;

namespace {
constexpr int kAcceptPollMs = 50;  // stop-flag check cadence
}  // namespace

LakeServer::LakeServer(std::unique_ptr<LakeBackend> backend,
                       const ServerOptions& options)
    : backend_(std::move(backend)), options_(options) {
  size_t query_threads = options_.query_threads != 0
                             ? options_.query_threads
                             : std::thread::hardware_concurrency();
  query_pool_ = std::make_unique<ThreadPool>(query_threads);
  io_pool_ = std::make_unique<ThreadPool>(options_.io_threads);
  batcher_ = std::make_unique<QueryBatcher>(backend_.get(), query_pool_.get(),
                                            options_.max_batch);
}

LakeServer::LakeServer(search::ShardedLakeIndex index,
                       const ServerOptions& options)
    : LakeServer(std::make_unique<InProcessBackend>(std::move(index)),
                 options) {}

LakeServer::LakeServer(DistributedLakeIndex index, const ServerOptions& options)
    : LakeServer(std::make_unique<DistributedBackend>(std::move(index)),
                 options) {}

LakeServer::~LakeServer() { Stop(); }

Status LakeServer::Start(const std::string& socket_path) {
  if (started_.load()) return Status::Internal("server already started");
  sockaddr_un addr;
  if (Status s = FillUnixSockaddr(socket_path, &addr); !s.ok()) return s;

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path.c_str());  // a stale path from a dead server is fine
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IoError("bind " + socket_path + ": " +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path.c_str());
    return status;
  }
  socket_path_ = socket_path;
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LakeServer::Stop() {
  // Serialize concurrent Stop calls (say, an explicit call racing the
  // destructor's): the loser blocks until the winner has fully torn down,
  // so it can never observe a half-stopped server.
  MutexLock stop_lock(&stop_mu_);
  if (!started_.load() || stopped_) return;
  stopped_ = true;

  // 1. Refuse new connections: flag the accept loop down, join it, release
  //    the socket path.
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());

  // 2. Nudge every open connection: a read-side shutdown makes a handler
  //    blocked in ReadFrame see a clean EOF. Handlers that already read a
  //    request keep going — they finish through the batcher and write
  //    their response on the still-open write side.
  {
    MutexLock lock(&conn_mu_);
    for (int fd : conns_) ::shutdown(fd, SHUT_RD);
  }

  // 3. Drain: wait for every connection handler (running and queued), then
  //    for the batcher (which answers all accepted queries before exiting).
  //    If a drained query's ParallelFor races the query pool's teardown
  //    below, rejected chunks run inline on the batcher's dispatcher
  //    thread (the ParallelFor shutdown contract in util/thread_pool.h) —
  //    drained responses are complete, never partial.
  io_pool_->Wait();
  batcher_->Stop();

  // 4. Tear down the pools; their destructors would do this too, but doing
  //    it here makes "no leaked threads" hold the moment Stop returns.
  io_pool_->Shutdown();
  query_pool_->Shutdown();
}

ServerStats LakeServer::stats() const {
  ServerStats stats = batcher_->stats();
  const LakeBackend::ChurnCounters churn = backend_->Churn();
  stats.pending_delta_tables = churn.pending_delta_tables;
  stats.pending_tombstones = churn.pending_tombstones;
  stats.compactions = churn.compactions;
  MutexLock lock(&latency_mu_);
  stats.total_latency_ms = total_latency_ms_;
  stats.requests += shard_requests_;
  return stats;
}

void LakeServer::MaybeAutoCompact() {
  if (options_.auto_compact_pending == 0) return;
  const LakeBackend::ChurnCounters churn = backend_->Churn();
  if (churn.pending_delta_tables + churn.pending_tombstones <
      options_.auto_compact_pending) {
    return;
  }
  if (compacting_.exchange(true)) return;  // one in flight is enough
  // The compaction task lives on the query pool and rebuilds shards over
  // that same pool, as a client COMPACT does: ParallelFor is nest-safe
  // (util/thread_pool.h). Stop() drains the query pool, so a compaction in
  // flight at shutdown completes rather than being torn out from under the
  // backend (on a pool already shut down, ParallelFor runs inline).
  if (!query_pool_->Submit([this] {
        // Ignorable: there is no client on this code path to report a
        // failure to, and it already shows up in the still-elevated churn
        // counters the next STATS read returns.
        (void)backend_->Compact(query_pool_.get());
        compacting_.store(false);
      })) {
    compacting_.store(false);
  }
}

void LakeServer::AcceptLoop() {
  for (;;) {
    if (stopping_.load()) return;
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready < 0 && errno != EINTR) {
      // A transient poll failure (e.g. ENOMEM) must not silently retire
      // the accept loop while running() still reads true; back off, retry.
      std::this_thread::sleep_for(std::chrono::milliseconds(kAcceptPollMs));
      continue;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // Under fd exhaustion (EMFILE/ENFILE) the pending connection keeps
      // the listen fd readable, so a bare retry would busy-spin a core;
      // back off and let fds free up.
      std::this_thread::sleep_for(std::chrono::milliseconds(kAcceptPollMs));
      continue;
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // A client that stops reading must not wedge a handler (and with it
    // graceful shutdown) in send() forever.
    timeval send_timeout{/*tv_sec=*/60, /*tv_usec=*/0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    {
      MutexLock lock(&conn_mu_);
      conns_.insert(fd);
    }
    if (!io_pool_->Submit([this, fd] { HandleConnection(fd); })) {
      MutexLock lock(&conn_mu_);
      conns_.erase(fd);
      ::close(fd);
    }
  }
}

void LakeServer::HandleConnection(int fd) {
  for (;;) {
    std::string payload;
    bool clean_eof = false;
    Status status =
        ReadFrame(fd, options_.max_frame_bytes, &payload, &clean_eof);
    if (status.ok() && clean_eof) break;
    if (!status.ok()) {
      // An oversized length prefix leaves the stream positioned after the
      // prefix, so the connection cannot be re-synchronized — answer with
      // a Status error, then close. Truncated frames and transport errors
      // mean the client is gone; just close.
      if (status.code() == StatusCode::kOutOfRange) {
        // Ignorable: this reply is best-effort courtesy on a connection we
        // are about to close — if the client is already gone there is
        // nobody left to tell.
        (void)WriteFrame(
            fd, SerializeResponse(Response::Error(Opcode::kJoin, status)));
      }
      break;
    }

    Clock::time_point received = Clock::now();
    std::istringstream in(payload);
    Request request;
    Response response;
    if (Status parsed = DecodeRequest(in, &request); !parsed.ok()) {
      // The frame boundary survived, so the connection is still usable.
      // DecodeRequest fills request.op before later failures (trailing
      // bytes, truncated vectors), so echo it where it got that far;
      // header-level failures leave the default.
      response = Response::Error(request.op, parsed);
    } else {
      response = HandleRequest(std::move(request));
    }
    // Query round trips (ranked and shard) feed the latency counter —
    // the same set stats() counts as requests, so served-vs-reported
    // means stay consistent; metadata ops (STATS/HEALTH/TABLES) don't.
    if (response.status == StatusCode::kOk &&
        (response.op == Opcode::kJoin || response.op == Opcode::kUnion ||
         response.op == Opcode::kShardQuery)) {
      MutexLock lock(&latency_mu_);
      total_latency_ms_ += MsSince(received);
    }
    if (!WriteFrame(fd, SerializeResponse(response)).ok()) break;
  }
  {
    MutexLock lock(&conn_mu_);
    conns_.erase(fd);
  }
  ::close(fd);
}

Response LakeServer::HandleRequest(Request&& request) {
  const Opcode op = request.op;
  // Echo the version the request arrived with: a version-1 client must get
  // version-1 responses it can decode, and Error() below already stamps
  // the lowest version that carries the opcode.
  Response response;
  response.version = request.version;
  response.op = op;
  if (op == Opcode::kStats) {
    response.stats = stats();
    return response;
  }
  if (op == Opcode::kHealth) {
    response.health = backend_->Health();
    return response;
  }
  if (op == Opcode::kShardTables) {
    Result<std::vector<std::string>> ids = backend_->TableIds();
    if (!ids.ok()) return Response::Error(op, ids.status());
    response.ids = std::move(ids).value();
    return response;
  }
  if (op == Opcode::kRemoveTable) {
    if (Status s = backend_->RemoveTable(request.table_id); !s.ok()) {
      return Response::Error(op, s);
    }
    MaybeAutoCompact();
    return response;
  }
  if (op == Opcode::kCompact) {
    // Blocks this handler until the fold finishes — the client asked for a
    // compaction and gets told when it is durable. Concurrent queries keep
    // serving against the pre-compaction epoch until the atomic swap.
    if (Status s = backend_->Compact(query_pool_.get()); !s.ok()) {
      return Response::Error(op, s);
    }
    return response;
  }
  if (op == Opcode::kJoin && request.columns.size() != 1) {
    return Response::Error(
        op, Status::InvalidArgument(
                "join query must carry exactly one column, got " +
                std::to_string(request.columns.size())));
  }
  for (const auto& column : request.columns) {
    if (column.size() != backend_->dim()) {
      return Response::Error(
          op, Status::InvalidArgument("query dim " +
                                      std::to_string(column.size()) +
                                      " does not match index dim " +
                                      std::to_string(backend_->dim())));
    }
  }
  if (op == Opcode::kAddTable) {
    if (Status s = backend_->AddTable(request.table_id, request.columns);
        !s.ok()) {
      return Response::Error(op, s);
    }
    MaybeAutoCompact();
    return response;
  }
  if (op == Opcode::kShardQuery) {
    // Shard queries bypass the batcher: they are the scatter primitive a
    // coordinator builds its own coalescing on, and their per-column hit
    // budget does not coalesce by (opcode, k) the way ranked queries do.
    // Clamping m to the column count changes nothing semantically (a
    // search cannot return more hits than columns exist) but bounds what
    // a hostile m can make the ANN layer allocate.
    const size_t m = std::min<size_t>(request.k, backend_->num_columns());
    Result<std::vector<std::vector<ShardHit>>> hits =
        backend_->ShardQuery(request.columns, m, query_pool_.get());
    if (!hits.ok()) return Response::Error(op, hits.status());
    response.hits = std::move(hits).value();
    {
      MutexLock lock(&latency_mu_);
      ++shard_requests_;
    }
    return response;
  }
  // Ranked results can never exceed the table count, so clamping k there
  // changes nothing semantically — but it stops a hostile k=0xFFFFFFFF in
  // an otherwise-valid tiny frame from driving a ~300 GB reserve() inside
  // the ranking stack and killing the server with bad_alloc.
  const size_t k = std::min<size_t>(request.k, backend_->num_tables());
  Result<std::vector<std::string>> ids =
      batcher_->Submit(op, std::move(request.columns), k);
  if (!ids.ok()) return Response::Error(op, ids.status());
  response.ids = std::move(ids).value();
  return response;
}

}  // namespace tsfm::server
