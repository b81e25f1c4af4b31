// Wire protocol for the lake query server (ROADMAP "Async query server").
//
// Everything on the socket is a length-prefixed frame: a uint32 payload
// byte count followed by the payload, little-endian host layout via
// stream_io.h like the rest of the on-disk formats. Payloads start with a
// protocol version byte so the format can evolve without breaking old
// clients, then an opcode. See src/server/README.md for the full layout.
//
// The codec is split from the socket layer on purpose: Encode*/Decode*
// work on std::iostreams so they can be property-tested without a socket,
// while WriteFrame/ReadFrame move whole frames over a file descriptor and
// are the only functions that touch the network.
#ifndef TSFM_SERVER_PROTOCOL_H_
#define TSFM_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace tsfm::server {

/// \brief Newest protocol version this build understands.
///
/// Version 1 defined JOIN/UNION/STATS; version 2 added the per-shard
/// opcodes (SHARD_QUERY/HEALTH/SHARD_TABLES) for the distributed tier and
/// changed nothing about the version-1 payloads. Version 3 added the
/// mutation opcodes (ADD_TABLE/REMOVE_TABLE/COMPACT) and three churn
/// counters to the kStats payload (carried only in v3-stamped stats
/// responses, so v1/v2 stats traffic is unchanged). Every message is
/// encoded with the *lowest* version that can express it (RequiredVersion
/// below), so a v3 client interoperates with a v1 server for the v1
/// opcodes, and decoders reject only frames they genuinely cannot parse: a
/// version outside [kMinProtocolVersion, kProtocolVersion], or an opcode
/// claimed inside a frame older than its RequiredVersion.
inline constexpr uint8_t kProtocolVersion = 3;

/// Oldest version still decoded (version-1 traffic stays valid).
inline constexpr uint8_t kMinProtocolVersion = 1;

/// Default ceiling on one frame's payload. A length prefix above the
/// negotiated ceiling is answered with a Status error, not an allocation.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

/// Most query columns (or SHARD_QUERY hit lists) one message may carry;
/// decoders reject larger counts before allocating.
inline constexpr uint64_t kMaxMessageColumns = 1u << 16;

/// Request kinds. Values are wire format — never renumber.
enum class Opcode : uint8_t {
  kJoin = 1,         ///< rank tables joinable on one query column
  kUnion = 2,        ///< rank tables unionable with a set of query columns
  kStats = 3,        ///< fetch server-side batching/latency counters
  kShardQuery = 4,   ///< raw top-m column hits per query column (coordinator scatter)
  kHealth = 5,       ///< shard identity: protocol version, backend, dim, counts
  kShardTables = 6,  ///< the shard's table ids in local-handle order
  kAddTable = 7,     ///< live-ingest one table (id + column embeddings)
  kRemoveTable = 8,  ///< tombstone the newest live table with an id
  kCompact = 9,      ///< fold deltas + tombstones into the base segments
};

/// True for the opcodes this version understands.
bool IsValidOpcode(uint8_t raw);

/// The lowest protocol version that can carry `op` (1 for the original
/// opcodes, 2 for the shard opcodes, 3 for the mutation opcodes). Encoders
/// stamp messages with this so old peers keep understanding new binaries'
/// v1 traffic.
uint8_t RequiredVersion(Opcode op);

/// \brief One client request.
///
/// kJoin carries exactly one column; kUnion and kShardQuery any number
/// (zero included — the server answers it exactly like a direct call with
/// no columns); kStats, kHealth, kShardTables, and kCompact carry neither
/// k nor columns. For kShardQuery, `k` is the per-column hit budget `m`
/// (the coordinator's k*3 over-retrieval), not a result-table count.
/// kAddTable carries `table_id` plus the new table's columns (no k);
/// kRemoveTable carries only `table_id`.
struct Request {
  uint8_t version = kProtocolVersion;
  Opcode op = Opcode::kJoin;
  uint32_t k = 0;
  std::string table_id;  ///< kAddTable / kRemoveTable target
  std::vector<std::vector<float>> columns;

  bool operator==(const Request&) const = default;
};

/// \brief A request's wire fields with the table id and columns borrowed,
/// not owned.
///
/// The request encoder reads this view, so a caller that holds its columns
/// elsewhere (LakeClient::ShardQuery) encodes them in place instead of
/// copying them into a Request first. A Request converts to its view
/// implicitly; both encode to the same bytes. The viewed id and columns
/// must outlive the view.
struct RequestView {
  RequestView(const Request& request)  // NOLINT(google-explicit-constructor)
      : version(request.version),
        op(request.op),
        k(request.k),
        table_id(request.table_id),
        columns(request.columns) {}
  RequestView(uint8_t version, Opcode op, uint32_t k,
              std::span<const std::vector<float>> columns)
      : version(version), op(op), k(k), columns(columns) {}

  uint8_t version;
  Opcode op;
  uint32_t k;
  std::string_view table_id;
  std::span<const std::vector<float>> columns;
};

/// \brief One raw column hit returned by a SHARD_QUERY.
///
/// `table` is a table handle in the *responding server's* handle space
/// (shard-local when the worker serves one shard); the coordinator remaps
/// it into the global handle space before merging.
struct ShardHit {
  uint64_t table = 0;
  uint32_t column = 0;
  float distance = 0;

  bool operator==(const ShardHit&) const = default;
};

/// \brief A shard worker's identity, returned by the HEALTH opcode.
///
/// The coordinator handshakes every worker with this before serving:
/// `protocol_version` catches mixed-version deployments, `backend`/
/// `metric`/`dim` must match the lake manifest, and the counts must agree
/// with the manifest's locator records.
struct ShardHealth {
  uint8_t protocol_version = kProtocolVersion;
  uint8_t backend = 0;  ///< search::IndexBackend
  uint8_t metric = 0;   ///< search::Metric
  uint64_t dim = 0;
  uint64_t num_tables = 0;
  uint64_t num_columns = 0;

  bool operator==(const ShardHealth&) const = default;
};

/// Server-side counters returned by the kStats opcode. The churn counters
/// travel only in v3-stamped stats responses (RequiredVersion keeps kStats
/// itself at version 1, so old peers still get the original five fields);
/// a v3 client requests the v3 shape by stamping its stats request v3.
struct ServerStats {
  uint64_t requests = 0;          ///< query requests answered (join/union/shard)
  uint64_t batches = 0;           ///< coalesced batch dispatches
  uint64_t max_batch = 0;         ///< largest batch coalesced so far
  double total_queue_wait_ms = 0; ///< sum of enqueue->dispatch waits
  double total_latency_ms = 0;    ///< sum of frame-read->response latencies
  uint64_t pending_delta_tables = 0;  ///< v3: delta tables awaiting compaction
  uint64_t pending_tombstones = 0;    ///< v3: tombstoned-but-uncompacted tables
  uint64_t compactions = 0;           ///< v3: completed compaction passes

  bool operator==(const ServerStats&) const = default;
};

/// \brief One server response.
///
/// `op` echoes the request opcode — when the server could parse one; for
/// frame-level errors (oversized prefix) and header-level parse failures
/// it stays the default kJoin — and selects which payload field is
/// meaningful. A non-OK `status` carries `message` and no payload.
struct Response {
  uint8_t version = kProtocolVersion;
  Opcode op = Opcode::kJoin;
  StatusCode status = StatusCode::kOk;
  std::string message;           ///< non-empty iff status != kOk
  std::vector<std::string> ids;  ///< kJoin/kUnion/kShardTables payload, ranked
  ServerStats stats;             ///< kStats payload
  std::vector<std::vector<ShardHit>> hits;  ///< kShardQuery: one list per column
  ShardHealth health;            ///< kHealth payload

  bool operator==(const Response&) const = default;

  /// Shorthand for an error response echoing `op`, stamped with the lowest
  /// version that carries `op` so peers of either version can decode it.
  static Response Error(Opcode op, const Status& status);
};

/// Serializes a request payload (without the frame length prefix). All
/// columns must share one dimension — the wire format carries a single dim
/// for the whole query — and ragged input check-fails rather than encoding
/// a payload that would decode to a different request.
void EncodeRequest(const RequestView& request, std::ostream& out);

/// \brief Parses a request payload.
///
/// Returns kParseError for a wrong version byte, unknown opcode, column
/// counts or dims large enough to be hostile, a stream that ends early, or
/// one that does not end exactly at the message end (a frame carries one
/// message; trailing bytes mean a desynced or hostile peer).
Status DecodeRequest(std::istream& in, Request* request);

/// Serializes a response payload (without the frame length prefix).
void EncodeResponse(const Response& response, std::ostream& out);

/// Parses a response payload; error taxonomy mirrors DecodeRequest.
Status DecodeResponse(std::istream& in, Response* response);

/// EncodeRequest into a string, ready for WriteFrame.
std::string SerializeRequest(const RequestView& request);

/// EncodeResponse into a string, ready for WriteFrame.
std::string SerializeResponse(const Response& response);

/// \brief Sends one length-prefixed frame over `fd`.
///
/// Handles short writes; never raises SIGPIPE (a vanished peer surfaces as
/// a kIoError Status instead).
Status WriteFrame(int fd, const std::string& payload);

/// \brief Reads one length-prefixed frame from `fd`.
///
/// A clean EOF at a frame boundary sets `*clean_eof` and returns OK with an
/// empty payload. EOF mid-frame (a truncated frame) is kIoError; a length
/// prefix above `max_bytes` is kOutOfRange, reported before any allocation
/// so an adversarial prefix cannot balloon memory.
Status ReadFrame(int fd, size_t max_bytes, std::string* payload,
                 bool* clean_eof);

}  // namespace tsfm::server

#endif  // TSFM_SERVER_PROTOCOL_H_
