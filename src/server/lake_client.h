// Blocking client for the LakeServer wire protocol: connect to a serving
// socket, issue join/union/stats requests, read framed responses. One
// in-flight request per client; share nothing across threads, or give each
// thread its own client (connections are cheap on AF_UNIX).
#ifndef TSFM_SERVER_LAKE_CLIENT_H_
#define TSFM_SERVER_LAKE_CLIENT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"

namespace tsfm::server {

/// \brief A synchronous connection to a LakeServer.
///
/// Query methods mirror ShardedLakeIndex's Query* surface and return the
/// same ranked ids the index would return directly. A server-side error
/// comes back as that error's Status; transport failures (server gone,
/// malformed response) are kIoError/kParseError. The destructor closes.
class LakeClient {
 public:
  /// `max_frame_bytes` bounds the response frames this client will accept;
  /// raise it for very large k against very large lakes (the server's
  /// request-side ceiling is configured independently in ServerOptions).
  explicit LakeClient(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}
  ~LakeClient();

  LakeClient(const LakeClient&) = delete;
  LakeClient& operator=(const LakeClient&) = delete;

  /// Connects to a LakeServer's AF_UNIX socket path.
  Status Connect(const std::string& socket_path);

  /// Ranked table ids joinable on `column`, best first. k saturates at
  /// UINT32_MAX on the wire (the server clamps to its table count anyway).
  Result<std::vector<std::string>> QueryJoinable(
      const std::vector<float>& column, size_t k);

  /// Ranked table ids unionable with `columns` (all columns must share one
  /// dimension; an empty query is legal and returns no results).
  Result<std::vector<std::string>> QueryUnionable(
      const std::vector<std::vector<float>>& columns, size_t k);

  /// \brief Server-side batching/latency counters plus churn counters.
  ///
  /// The request is stamped protocol version 3 so the response carries the
  /// churn counters (the stats payload shape follows the request version).
  /// Pre-v3 servers reject the stamp with a clean version error — query a
  /// frozen deployment's stats with an older client build.
  Result<ServerStats> Stats();

  /// Live-ingests one table (ADD_TABLE). All columns must share one
  /// dimension. Requires a protocol-version-3 server.
  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns);

  /// Tombstones the newest live table named `table_id` (REMOVE_TABLE);
  /// kNotFound when no live table has that id. Requires a v3 server.
  Status RemoveTable(const std::string& table_id);

  /// Folds deltas + tombstones into the base segments (COMPACT). Blocks
  /// until the server's compaction finishes. Requires a v3 server.
  Status Compact();

  /// \brief Raw top-`m` column hits per query column (SHARD_QUERY).
  ///
  /// The scatter half of a distributed query: hits come back in the
  /// server's own table-handle space, sorted by (distance, table, column),
  /// one list per query column, for the coordinator to remap and k-way
  /// merge. Requires a protocol-version-2 server.
  Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>& columns, size_t m);

  /// The server's identity/shape counters (HEALTH). Requires a v2 server.
  Result<ShardHealth> Health();

  /// The server's table ids in its local handle order (SHARD_TABLES).
  /// Requires a v2 server.
  Result<std::vector<std::string>> ShardTables();

  /// \brief Bounds how long each socket operation of a round trip may block.
  ///
  /// Sets both SO_RCVTIMEO and SO_SNDTIMEO: a worker that stops *reading*
  /// (wedged peer, SIGSTOP) would otherwise hang a large send forever once
  /// the socket buffer fills, exactly like one that stops writing. `ms`
  /// <= 0 restores the default (block forever). Applies to the current
  /// connection immediately and to future Connects. On expiry the pending
  /// call fails with kIoError ("timed out") and the connection closes —
  /// the request may still execute server-side, so only idempotent reads
  /// should be retried. The bound is per socket operation, not per round
  /// trip: a peer trickling bytes can stretch a round trip past it, but
  /// can no longer stall one indefinitely.
  void set_timeout_ms(int ms);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  Result<Response> RoundTrip(const RequestView& request);
  void ApplyTimeouts();

  size_t max_frame_bytes_;
  int timeout_ms_ = 0;
  int fd_ = -1;
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_LAKE_CLIENT_H_
