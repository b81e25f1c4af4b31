#include "server/lake_client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "server/net_util.h"

namespace tsfm::server {

LakeClient::~LakeClient() { Close(); }

Status LakeClient::Connect(const std::string& socket_path) {
  if (fd_ >= 0) return Status::Internal("client already connected");
  sockaddr_un addr;
  if (Status s = internal::FillUnixSockaddr(socket_path, &addr); !s.ok()) {
    return s;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::IoError("connect " + socket_path + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  ApplyTimeouts();
  return Status::OK();
}

void LakeClient::set_timeout_ms(int ms) {
  timeout_ms_ = ms > 0 ? ms : 0;
  ApplyTimeouts();
}

void LakeClient::ApplyTimeouts() {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void LakeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Response> LakeClient::RoundTrip(const RequestView& request) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  if (Status s = WriteFrame(fd_, SerializeRequest(request)); !s.ok()) {
    Close();
    return s;
  }
  std::string payload;
  bool clean_eof = false;
  if (Status s = ReadFrame(fd_, max_frame_bytes_, &payload, &clean_eof);
      !s.ok()) {
    Close();
    return s;
  }
  if (clean_eof) {
    Close();
    return Status::IoError("server closed the connection");
  }
  std::istringstream in(payload);
  Response response;
  if (Status s = DecodeResponse(in, &response); !s.ok()) {
    Close();
    return s;
  }
  if (response.status != StatusCode::kOk) {
    return Status(response.status, response.message);
  }
  return response;
}

namespace {
// The wire carries a uint32 k; saturate rather than silently wrap (a k of
// exactly 2^32 would otherwise encode as 0 and return nothing). The server
// clamps to its table count anyway, so saturation never changes results.
uint32_t SaturateK(size_t k) {
  return static_cast<uint32_t>(
      std::min<size_t>(k, std::numeric_limits<uint32_t>::max()));
}

// Stamp each request with the lowest protocol version that carries its
// opcode, so this client keeps working against version-1 servers for the
// version-1 opcodes.
Request MakeRequest(Opcode op) {
  Request request;
  request.version = RequiredVersion(op);
  request.op = op;
  return request;
}
}  // namespace

Result<std::vector<std::string>> LakeClient::QueryJoinable(
    const std::vector<float>& column, size_t k) {
  Request request = MakeRequest(Opcode::kJoin);
  request.k = SaturateK(k);
  request.columns = {column};
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return std::move(response).value().ids;
}

Result<std::vector<std::string>> LakeClient::QueryUnionable(
    const std::vector<std::vector<float>>& columns, size_t k) {
  // EncodeRequest writes one dim for the whole query; catch ragged input
  // here rather than silently mangling it on the wire.
  for (const auto& column : columns) {
    if (column.size() != columns[0].size()) {
      return Status::InvalidArgument("union query columns differ in dim");
    }
  }
  Request request = MakeRequest(Opcode::kUnion);
  request.k = SaturateK(k);
  request.columns = columns;
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return std::move(response).value().ids;
}

Result<ServerStats> LakeClient::Stats() {
  Request request = MakeRequest(Opcode::kStats);
  // The stats payload shape follows the request version: stamp the newest
  // version so the response carries the v3 churn counters too.
  request.version = kProtocolVersion;
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return std::move(response).value().stats;
}

Status LakeClient::AddTable(const std::string& table_id,
                            const std::vector<std::vector<float>>& columns) {
  for (const auto& column : columns) {
    if (column.size() != columns[0].size()) {
      return Status::InvalidArgument("new table's columns differ in dim");
    }
  }
  Request request = MakeRequest(Opcode::kAddTable);
  request.table_id = table_id;
  request.columns = columns;
  Result<Response> response = RoundTrip(request);
  return response.ok() ? Status::OK() : response.status();
}

Status LakeClient::RemoveTable(const std::string& table_id) {
  Request request = MakeRequest(Opcode::kRemoveTable);
  request.table_id = table_id;
  Result<Response> response = RoundTrip(request);
  return response.ok() ? Status::OK() : response.status();
}

Status LakeClient::Compact() {
  Result<Response> response = RoundTrip(MakeRequest(Opcode::kCompact));
  return response.ok() ? Status::OK() : response.status();
}

Result<std::vector<std::vector<ShardHit>>> LakeClient::ShardQuery(
    const std::vector<std::vector<float>>& columns, size_t m) {
  for (const auto& column : columns) {
    if (column.size() != columns[0].size()) {
      return Status::InvalidArgument("shard query columns differ in dim");
    }
  }
  // Encoded straight from the caller's columns: the distributed coordinator
  // may retry this call on a fresh connection, so they are neither copied
  // nor moved.
  Result<Response> response = RoundTrip(
      RequestView(RequiredVersion(Opcode::kShardQuery), Opcode::kShardQuery,
                  SaturateK(m), columns));
  if (!response.ok()) return response.status();
  return std::move(response).value().hits;
}

Result<ShardHealth> LakeClient::Health() {
  Result<Response> response = RoundTrip(MakeRequest(Opcode::kHealth));
  if (!response.ok()) return response.status();
  return std::move(response).value().health;
}

Result<std::vector<std::string>> LakeClient::ShardTables() {
  Result<Response> response = RoundTrip(MakeRequest(Opcode::kShardTables));
  if (!response.ok()) return response.status();
  return std::move(response).value().ids;
}

}  // namespace tsfm::server
