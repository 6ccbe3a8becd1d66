#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <type_traits>

namespace davinci::server {

Client::~Client() { Close(); }

bool Client::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Client::SendRaw(const void* data, size_t size) {
  const char* bytes = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Client::SendRequest(const std::string& body) {
  std::string frame = Frame(body);
  return SendRaw(frame.data(), frame.size());
}

bool Client::ReadResponse(std::string* body) {
  uint8_t prefix[sizeof(uint32_t)];
  size_t got = 0;
  while (got < sizeof(prefix)) {
    ssize_t n = ::read(fd_, prefix + got, sizeof(prefix) - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  uint32_t len = 0;
  std::memcpy(&len, prefix, sizeof(len));
  if (len == 0 || len > kMaxFrameBytes) return false;
  body->resize(len);
  got = 0;
  while (got < len) {
    ssize_t n = ::read(fd_, body->data() + got, len - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Client::Call(const std::string& body, std::string* response) {
  return SendRequest(body) && ReadResponse(response);
}

template <typename E, typename... R, typename... Args>
StatusCode Client::RoundTrip(std::tuple<R&...> reply, const Args&... args) {
  static_assert(
      std::is_same_v<std::tuple<R&...>,
                     decltype(std::declval<typename E::Reply&>().Fields())>,
      "reply references do not match the op's reply fields");
  std::string body;
  if (!EncodeRequest<E>(&body, args...)) return StatusCode::kMalformed;
  std::string response;
  if (!Call(body, &response)) return StatusCode::kInternal;
  StatusCode status = ParseStatus(response);
  if (status != StatusCode::kOk) return status;
  WireReader reader(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(response.data()) + 1,
      response.size() - 1));
  return DecodeFields(reader, reply) == StatusCode::kOk
             ? StatusCode::kOk
             : StatusCode::kInternal;
}

StatusCode Client::ParseStatus(const std::string& response) {
  if (response.empty()) return StatusCode::kInternal;
  return static_cast<StatusCode>(static_cast<uint8_t>(response[0]));
}

// ---------------------------------------------------------------------------
// Typed calls: one table entry each.

StatusCode Client::Ping() { return RoundTrip<ops::Ping>(std::tie()); }

StatusCode Client::CreateTenant(const std::string& name, uint32_t shards,
                                uint64_t total_bytes, uint64_t seed,
                                uint32_t window_epochs, uint64_t max_bytes) {
  return RoundTrip<ops::CreateTenant>(std::tie(), name, shards, total_bytes,
                                      seed, window_epochs, max_bytes);
}

StatusCode Client::ResizeTenant(const std::string& name, uint64_t total_bytes,
                                uint64_t* new_memory_bytes) {
  uint64_t bytes = 0;
  StatusCode status =
      RoundTrip<ops::ResizeTenant>(std::tie(bytes), name, total_bytes);
  if (status == StatusCode::kOk && new_memory_bytes != nullptr) {
    *new_memory_bytes = bytes;
  }
  return status;
}

StatusCode Client::DropTenant(const std::string& name) {
  return RoundTrip<ops::DropTenant>(std::tie(), name);
}

StatusCode Client::ListTenants(std::vector<std::string>* names) {
  return RoundTrip<ops::ListTenants>(std::tie(*names));
}

StatusCode Client::AdvanceEpoch(const std::string& name, uint64_t* epoch) {
  return RoundTrip<ops::AdvanceEpoch>(std::tie(*epoch), name);
}

StatusCode Client::Checkpoint(const std::string& name, bool* written) {
  bool flag = false;
  StatusCode status = RoundTrip<ops::Checkpoint>(std::tie(flag), name);
  if (status == StatusCode::kOk && written != nullptr) *written = flag;
  return status;
}

StatusCode Client::Health(const std::string& name, HealthReply* out) {
  return RoundTrip<ops::Health>(out->Fields(), name);
}

StatusCode Client::FlushViews(const std::string& name) {
  return RoundTrip<ops::FlushViews>(std::tie(), name);
}

StatusCode Client::ExportSketch(const std::string& name, uint8_t format,
                                ExportedSketch* out) {
  return RoundTrip<ops::ExportSketch>(std::tie(*out), name, format);
}

StatusCode Client::ImportMerge(const std::string& name,
                               std::span<const ExportedSketch> images,
                               uint32_t* new_height) {
  uint32_t height = 0;
  StatusCode status =
      RoundTrip<ops::ImportMerge>(std::tie(height), name, images);
  if (status == StatusCode::kOk && new_height != nullptr) {
    *new_height = height;
  }
  return status;
}

StatusCode Client::Insert(const std::string& name, uint32_t key,
                          int64_t count) {
  return RoundTrip<ops::Insert>(std::tie(), name, key, count);
}

std::string Client::InsertBatchRequest(const std::string& name,
                                       std::span<const uint32_t> keys,
                                       std::span<const int64_t> counts) {
  std::string body;
  EncodeRequest<ops::InsertBatch>(&body, name, keys, counts);
  return body;
}

StatusCode Client::InsertBatch(const std::string& name,
                               std::span<const uint32_t> keys,
                               std::span<const int64_t> counts) {
  return RoundTrip<ops::InsertBatch>(std::tie(), name, keys, counts);
}

std::string Client::QueryRequest(const std::string& name, uint32_t key) {
  std::string body;
  EncodeRequest<ops::Query>(&body, name, key);
  return body;
}

StatusCode Client::Query(const std::string& name, uint32_t key, int64_t* out) {
  return RoundTrip<ops::Query>(std::tie(*out), name, key);
}

StatusCode Client::QueryBatch(const std::string& name,
                              std::span<const uint32_t> keys,
                              std::vector<int64_t>* out) {
  return RoundTrip<ops::QueryBatch>(std::tie(*out), name, keys);
}

StatusCode Client::HeavyHitters(
    const std::string& name, int64_t threshold,
    std::vector<std::pair<uint32_t, int64_t>>* out) {
  return RoundTrip<ops::HeavyHitters>(std::tie(*out), name, threshold);
}

StatusCode Client::HeavyChangers(
    const std::string& a, const std::string& b, int64_t delta,
    std::vector<std::pair<uint32_t, int64_t>>* out) {
  return RoundTrip<ops::HeavyChangers>(std::tie(*out), a, b, delta);
}

StatusCode Client::Cardinality(const std::string& name, double* out) {
  return RoundTrip<ops::Cardinality>(std::tie(*out), name);
}

StatusCode Client::Distribution(
    const std::string& name, std::vector<std::pair<int64_t, int64_t>>* out) {
  return RoundTrip<ops::Distribution>(std::tie(*out), name);
}

StatusCode Client::Entropy(const std::string& name, double* out) {
  return RoundTrip<ops::Entropy>(std::tie(*out), name);
}

StatusCode Client::UnionCardinality(const std::string& a, const std::string& b,
                                    double* out) {
  return RoundTrip<ops::UnionCardinality>(std::tie(*out), a, b);
}

StatusCode Client::DifferenceQuery(const std::string& a, const std::string& b,
                                   std::span<const uint32_t> keys,
                                   std::vector<int64_t>* out) {
  return RoundTrip<ops::DifferenceQuery>(std::tie(*out), a, b, keys);
}

StatusCode Client::InnerProduct(const std::string& a, const std::string& b,
                                double* out) {
  return RoundTrip<ops::InnerProduct>(std::tie(*out), a, b);
}

StatusCode Client::WindowHeavyChangers(
    const std::string& name, int64_t delta,
    std::vector<std::pair<uint32_t, int64_t>>* out) {
  return RoundTrip<ops::WindowHeavyChangers>(std::tie(*out), name, delta);
}

}  // namespace davinci::server
