#include "server/protocol.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "search/stream_io.h"
#include "util/logging.h"

namespace tsfm::server {

using search::io::ReadPod;
using search::io::WritePod;

namespace {

// Codec-level sanity caps. The socket layer already bounds a frame's total
// bytes, but a garbage payload can still claim absurd element counts; these
// caps turn that into kParseError before any large allocation. Every
// legitimate message is far below them.
constexpr uint64_t kMaxDim = 1u << 16;
constexpr uint64_t kMaxIds = 1u << 20;
constexpr uint64_t kMaxIdBytes = 1u << 20;

Status Truncated(const char* what) {
  return Status::ParseError(std::string("payload ends inside ") + what);
}

// One frame carries exactly one message; accepting trailing bytes would
// let a desynced or hostile peer smuggle a second message the receiver
// silently drops, desyncing request/response accounting.
Status RequireFullyConsumed(std::istream& in) {
  if (in.peek() != std::istream::traits_type::eof()) {
    return Status::ParseError("payload has trailing bytes after the message");
  }
  return Status::OK();
}

// True for the opcodes that carry no payload beyond the header.
bool IsHeaderOnly(Opcode op) {
  return op == Opcode::kStats || op == Opcode::kHealth ||
         op == Opcode::kShardTables || op == Opcode::kCompact;
}

// True for the opcodes whose payload starts with a table id.
bool CarriesTableId(Opcode op) {
  return op == Opcode::kAddTable || op == Opcode::kRemoveTable;
}

// Shared header validation: the version byte must be one this build
// decodes, and a newer opcode must not be smuggled into an older frame — an
// old-version-only peer would misparse it, so that combination never
// appears on a healthy wire.
Status CheckVersionedOpcode(uint8_t version, uint8_t raw_op) {
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return Status::ParseError("unsupported protocol version " +
                              std::to_string(version));
  }
  if (!IsValidOpcode(raw_op)) {
    return Status::ParseError("unknown opcode " + std::to_string(raw_op));
  }
  const uint8_t required = RequiredVersion(static_cast<Opcode>(raw_op));
  if (version < required) {
    return Status::ParseError(
        "opcode " + std::to_string(raw_op) + " requires protocol version " +
        std::to_string(required) + ", got " + std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

bool IsValidOpcode(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kJoin) &&
         raw <= static_cast<uint8_t>(Opcode::kCompact);
}

uint8_t RequiredVersion(Opcode op) {
  switch (op) {
    case Opcode::kJoin:
    case Opcode::kUnion:
    case Opcode::kStats:
      return 1;
    case Opcode::kShardQuery:
    case Opcode::kHealth:
    case Opcode::kShardTables:
      return 2;
    case Opcode::kAddTable:
    case Opcode::kRemoveTable:
    case Opcode::kCompact:
      return 3;
  }
  return kProtocolVersion;
}

Response Response::Error(Opcode op, const Status& status) {
  Response response;
  response.version = RequiredVersion(op);
  response.op = op;
  response.status = status.code();
  response.message = status.message();
  return response;
}

void EncodeRequest(const RequestView& request, std::ostream& out) {
  WritePod(out, request.version);
  WritePod(out, static_cast<uint8_t>(request.op));
  if (IsHeaderOnly(request.op)) return;
  if (CarriesTableId(request.op)) {
    WritePod(out, static_cast<uint32_t>(request.table_id.size()));
    out.write(request.table_id.data(),
              static_cast<std::streamsize>(request.table_id.size()));
    if (request.op == Opcode::kRemoveTable) return;
    // kAddTable continues with the new table's columns; no k — an ingest
    // has no result-count knob.
  } else {
    WritePod(out, request.k);
  }
  WritePod(out, static_cast<uint32_t>(request.columns.size()));
  const uint32_t dim =
      request.columns.empty() ? 0u
                              : static_cast<uint32_t>(request.columns[0].size());
  WritePod(out, dim);
  for (const auto& column : request.columns) {
    // The wire format carries one dim for the whole query; ragged input
    // would encode to a payload that decodes to a *different* request.
    TSFM_CHECK_EQ(column.size(), static_cast<size_t>(dim));
    out.write(reinterpret_cast<const char*>(column.data()),
              static_cast<std::streamsize>(column.size() * sizeof(float)));
  }
}

Status DecodeRequest(std::istream& in, Request* request) {
  uint8_t version = 0, raw_op = 0;
  if (!ReadPod(in, &version) || !ReadPod(in, &raw_op)) {
    return Truncated("request header");
  }
  if (Status s = CheckVersionedOpcode(version, raw_op); !s.ok()) return s;
  request->version = version;
  request->op = static_cast<Opcode>(raw_op);
  request->k = 0;
  request->table_id.clear();
  request->columns.clear();
  if (IsHeaderOnly(request->op)) return RequireFullyConsumed(in);
  if (CarriesTableId(request->op)) {
    uint32_t id_len = 0;
    if (!ReadPod(in, &id_len)) return Truncated("table id length");
    if (id_len > kMaxIdBytes) {
      return Status::ParseError("table id length exceeds protocol limits");
    }
    request->table_id.resize(id_len);
    in.read(request->table_id.data(), static_cast<std::streamsize>(id_len));
    if (!in) return Truncated("table id");
    if (request->op == Opcode::kRemoveTable) return RequireFullyConsumed(in);
    uint32_t num_columns = 0, dim = 0;
    if (!ReadPod(in, &num_columns) || !ReadPod(in, &dim)) {
      return Truncated("table shape");
    }
    if (num_columns > kMaxMessageColumns || dim > kMaxDim) {
      return Status::ParseError("table shape " + std::to_string(num_columns) +
                                "x" + std::to_string(dim) +
                                " exceeds protocol limits");
    }
    request->columns.resize(num_columns);
    for (auto& column : request->columns) {
      column.resize(dim);
      in.read(reinterpret_cast<char*>(column.data()),
              static_cast<std::streamsize>(dim * sizeof(float)));
      if (!in) return Truncated("table vectors");
    }
    return RequireFullyConsumed(in);
  }

  uint32_t num_columns = 0, dim = 0;
  if (!ReadPod(in, &request->k) || !ReadPod(in, &num_columns) ||
      !ReadPod(in, &dim)) {
    return Truncated("request query header");
  }
  if (num_columns > kMaxMessageColumns || dim > kMaxDim) {
    return Status::ParseError("query shape " + std::to_string(num_columns) +
                              "x" + std::to_string(dim) +
                              " exceeds protocol limits");
  }
  request->columns.resize(num_columns);
  for (auto& column : request->columns) {
    column.resize(dim);
    in.read(reinterpret_cast<char*>(column.data()),
            static_cast<std::streamsize>(dim * sizeof(float)));
    if (!in) return Truncated("query vectors");
  }
  return RequireFullyConsumed(in);
}

void EncodeResponse(const Response& response, std::ostream& out) {
  WritePod(out, response.version);
  WritePod(out, static_cast<uint8_t>(response.op));
  WritePod(out, static_cast<uint8_t>(response.status));
  if (response.status != StatusCode::kOk) {
    WritePod(out, static_cast<uint32_t>(response.message.size()));
    out.write(response.message.data(),
              static_cast<std::streamsize>(response.message.size()));
    return;
  }
  if (response.op == Opcode::kStats) {
    WritePod(out, response.stats.requests);
    WritePod(out, response.stats.batches);
    WritePod(out, response.stats.max_batch);
    WritePod(out, response.stats.total_queue_wait_ms);
    WritePod(out, response.stats.total_latency_ms);
    // Churn counters ride only in v3-stamped stats responses; the server
    // echoes the request's version, so a v1/v2 peer keeps receiving the
    // exact five-field payload it always parsed.
    if (response.version >= 3) {
      WritePod(out, response.stats.pending_delta_tables);
      WritePod(out, response.stats.pending_tombstones);
      WritePod(out, response.stats.compactions);
    }
    return;
  }
  if (response.op == Opcode::kHealth) {
    WritePod(out, response.health.protocol_version);
    WritePod(out, response.health.backend);
    WritePod(out, response.health.metric);
    WritePod(out, response.health.dim);
    WritePod(out, response.health.num_tables);
    WritePod(out, response.health.num_columns);
    return;
  }
  if (response.op == Opcode::kShardQuery) {
    WritePod(out, static_cast<uint32_t>(response.hits.size()));
    for (const auto& list : response.hits) {
      WritePod(out, static_cast<uint32_t>(list.size()));
      for (const ShardHit& hit : list) {
        WritePod(out, hit.table);
        WritePod(out, hit.column);
        WritePod(out, hit.distance);
      }
    }
    return;
  }
  WritePod(out, static_cast<uint32_t>(response.ids.size()));
  for (const auto& id : response.ids) {
    WritePod(out, static_cast<uint32_t>(id.size()));
    out.write(id.data(), static_cast<std::streamsize>(id.size()));
  }
}

Status DecodeResponse(std::istream& in, Response* response) {
  uint8_t version = 0, raw_op = 0, raw_status = 0;
  if (!ReadPod(in, &version) || !ReadPod(in, &raw_op) ||
      !ReadPod(in, &raw_status)) {
    return Truncated("response header");
  }
  if (Status s = CheckVersionedOpcode(version, raw_op); !s.ok()) return s;
  if (raw_status > static_cast<uint8_t>(StatusCode::kUnimplemented)) {
    return Status::ParseError("unknown status code " +
                              std::to_string(raw_status));
  }
  response->version = version;
  response->op = static_cast<Opcode>(raw_op);
  response->status = static_cast<StatusCode>(raw_status);
  response->message.clear();
  response->ids.clear();
  response->stats = ServerStats{};
  response->hits.clear();
  response->health = ShardHealth{};
  if (response->status != StatusCode::kOk) {
    uint32_t len = 0;
    if (!ReadPod(in, &len)) return Truncated("error message length");
    if (len > kMaxIdBytes) {
      return Status::ParseError("error message length exceeds protocol limits");
    }
    response->message.resize(len);
    in.read(response->message.data(), static_cast<std::streamsize>(len));
    if (!in) return Truncated("error message");
    return RequireFullyConsumed(in);
  }
  if (response->op == Opcode::kStats) {
    if (!ReadPod(in, &response->stats.requests) ||
        !ReadPod(in, &response->stats.batches) ||
        !ReadPod(in, &response->stats.max_batch) ||
        !ReadPod(in, &response->stats.total_queue_wait_ms) ||
        !ReadPod(in, &response->stats.total_latency_ms)) {
      return Truncated("stats payload");
    }
    if (version >= 3 &&
        (!ReadPod(in, &response->stats.pending_delta_tables) ||
         !ReadPod(in, &response->stats.pending_tombstones) ||
         !ReadPod(in, &response->stats.compactions))) {
      return Truncated("stats churn counters");
    }
    return RequireFullyConsumed(in);
  }
  if (response->op == Opcode::kHealth) {
    if (!ReadPod(in, &response->health.protocol_version) ||
        !ReadPod(in, &response->health.backend) ||
        !ReadPod(in, &response->health.metric) ||
        !ReadPod(in, &response->health.dim) ||
        !ReadPod(in, &response->health.num_tables) ||
        !ReadPod(in, &response->health.num_columns)) {
      return Truncated("health payload");
    }
    return RequireFullyConsumed(in);
  }
  if (response->op == Opcode::kShardQuery) {
    uint32_t num_lists = 0;
    if (!ReadPod(in, &num_lists)) return Truncated("hit list count");
    if (num_lists > kMaxMessageColumns) {
      return Status::ParseError("hit list count exceeds protocol limits");
    }
    response->hits.resize(num_lists);
    for (auto& list : response->hits) {
      uint32_t num_hits = 0;
      if (!ReadPod(in, &num_hits)) return Truncated("hit count");
      if (num_hits > kMaxIds) {
        return Status::ParseError("hit count exceeds protocol limits");
      }
      // Grow incrementally so a hostile count with no data behind it fails
      // on its first missing hit, not after a count-sized allocation.
      list.reserve(std::min<uint32_t>(num_hits, 1024));
      for (uint32_t i = 0; i < num_hits; ++i) {
        ShardHit hit;
        if (!ReadPod(in, &hit.table) || !ReadPod(in, &hit.column) ||
            !ReadPod(in, &hit.distance)) {
          return Truncated("hit entries");
        }
        list.push_back(hit);
      }
    }
    return RequireFullyConsumed(in);
  }
  uint32_t count = 0;
  if (!ReadPod(in, &count)) return Truncated("result count");
  if (count > kMaxIds) {
    return Status::ParseError("result count exceeds protocol limits");
  }
  // Grow incrementally rather than resize(count) upfront: a hostile count
  // with no data behind it fails on its first missing id, not after a
  // count-sized allocation.
  response->ids.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!ReadPod(in, &len)) return Truncated("table id length");
    if (len > kMaxIdBytes) {
      return Status::ParseError("table id length exceeds protocol limits");
    }
    std::string id(len, '\0');
    in.read(id.data(), static_cast<std::streamsize>(len));
    if (!in) return Truncated("table id");
    response->ids.push_back(std::move(id));
  }
  return RequireFullyConsumed(in);
}

std::string SerializeRequest(const RequestView& request) {
  std::ostringstream out;
  EncodeRequest(request, out);
  return std::move(out).str();
}

std::string SerializeResponse(const Response& response) {
  std::ostringstream out;
  EncodeResponse(response, out);
  return std::move(out).str();
}

namespace {

// send() with MSG_NOSIGNAL so a vanished peer is an error code, not a
// process-killing SIGPIPE.
Status SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer stopped reading and the socket
        // buffer is full — same alive-but-wedged condition as a recv
        // timeout, named the same way.
        return Status::IoError("send timed out writing a frame");
      }
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Reads exactly `len` bytes. `*clean_eof` is set only when EOF arrives
// before the first byte (i.e. at a message boundary for the caller).
Status RecvAll(int fd, char* data, size_t len, bool* clean_eof) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired: the peer is alive-but-silent or wedged. Name
        // the condition so a coordinator can report "timed out", not a
        // generic resource error.
        return Status::IoError("recv timed out waiting for a frame");
      }
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[sizeof(len)];
  std::memcpy(prefix, &len, sizeof(len));
  if (Status s = SendAll(fd, prefix, sizeof(prefix)); !s.ok()) return s;
  return SendAll(fd, payload.data(), payload.size());
}

Status ReadFrame(int fd, size_t max_bytes, std::string* payload,
                 bool* clean_eof) {
  payload->clear();
  if (clean_eof != nullptr) *clean_eof = false;
  uint32_t len = 0;
  if (Status s = RecvAll(fd, reinterpret_cast<char*>(&len), sizeof(len),
                         clean_eof);
      !s.ok()) {
    return s;
  }
  if (clean_eof != nullptr && *clean_eof) return Status::OK();
  if (len > max_bytes) {
    return Status::OutOfRange("frame length " + std::to_string(len) +
                              " exceeds limit " + std::to_string(max_bytes));
  }
  payload->resize(len);
  return RecvAll(fd, payload->data(), len, nullptr);
}

}  // namespace tsfm::server
