// Wire-protocol conformance of the sketch server (docs/SERVER.md):
//  - every request/response round-trips through a real socket;
//  - batched wire ingest is bit-equivalent to a direct InsertBatch into a
//    same-parameter ConcurrentDaVinci (compared on serialized bytes);
//  - all nine query tasks answered over the wire match the in-process
//    computation bit-for-bit on a seeded Zipf trace;
//  - hostile input (unknown opcodes, truncated payloads, trailing
//    garbage, oversized/zero length prefixes) gets a clean error reply
//    and never harms other connections or tenants;
//  - every opcode's request bytes, reply bytes and error statuses are
//    pinned byte for byte (WirePinTest), so a refactor of the codec cannot
//    drift the wire.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_davinci.h"
#include "obs/health.h"
#include "server/client.h"
#include "server/dispatcher.h"
#include "server/ops.h"
#include "server/server.h"
#include "server/tenant.h"
#include "test_seed.h"
#include "workload/trace.h"

namespace davinci::server {
namespace {

constexpr uint32_t kShards = 4;
constexpr uint64_t kTenantBytes = 256 * 1024;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<SketchServer>(options);
    ASSERT_TRUE(server_->Start());
    ASSERT_TRUE(client_.Connect(server_->port()));
  }

  void TearDown() override {
    client_.Close();
    server_->Stop();
  }

  std::unique_ptr<SketchServer> server_;
  Client client_;
};

std::string SerializedSnapshot(const ConcurrentDaVinci& engine) {
  std::stringstream buffer;
  engine.Snapshot().Save(buffer);
  return buffer.str();
}

TEST_F(ServerTest, PingAndTenantLifecycle) {
  EXPECT_EQ(client_.Ping(), StatusCode::kOk);

  EXPECT_EQ(client_.CreateTenant("alpha", kShards, kTenantBytes, 7),
            StatusCode::kOk);
  EXPECT_EQ(client_.CreateTenant("alpha", kShards, kTenantBytes, 7),
            StatusCode::kTenantExists);
  // Filesystem-hostile and empty names are rejected before any state.
  EXPECT_EQ(client_.CreateTenant("../evil", kShards, kTenantBytes, 7),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.CreateTenant("", kShards, kTenantBytes, 7),
            StatusCode::kBadArgument);
  // Invalid geometry: zero shards.
  EXPECT_EQ(client_.CreateTenant("beta", 0, kTenantBytes, 7),
            StatusCode::kBadArgument);

  EXPECT_EQ(client_.CreateTenant("beta", kShards, kTenantBytes, 7),
            StatusCode::kOk);
  std::vector<std::string> names;
  ASSERT_EQ(client_.ListTenants(&names), StatusCode::kOk);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta"}));

  EXPECT_EQ(client_.DropTenant("alpha"), StatusCode::kOk);
  EXPECT_EQ(client_.DropTenant("alpha"), StatusCode::kNoSuchTenant);
  ASSERT_EQ(client_.ListTenants(&names), StatusCode::kOk);
  EXPECT_EQ(names, (std::vector<std::string>{"beta"}));

  uint64_t epoch = 0;
  EXPECT_EQ(client_.AdvanceEpoch("beta", &epoch), StatusCode::kOk);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(client_.AdvanceEpoch("ghost", &epoch), StatusCode::kNoSuchTenant);

  HealthReply health;
  ASSERT_EQ(client_.Health("beta", &health), StatusCode::kOk);
  EXPECT_EQ(health.shards, kShards);
  EXPECT_GT(health.memory_bytes, 0u);
  EXPECT_FALSE(health.windowed);
  EXPECT_EQ(client_.FlushViews("beta"), StatusCode::kOk);
}

TEST_F(ServerTest, BatchedIngestBitEquivalentToDirectInsertBatch) {
  const uint64_t seed = testing::TestSeed(11);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace = BuildSkewedTrace("ingest", 60000, 5000, 1.0, seed);
  std::vector<int64_t> ones(trace.keys.size(), 1);

  ASSERT_EQ(client_.CreateTenant("t", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  // Mixed chunk sizes, plus a few single inserts, to exercise framing.
  size_t pos = 0;
  int toggle = 0;
  while (pos < trace.keys.size()) {
    size_t chunk = (toggle++ % 3 == 0) ? 1 : std::min<size_t>(
        4096, trace.keys.size() - pos);
    chunk = std::min(chunk, trace.keys.size() - pos);
    if (chunk == 1) {
      ASSERT_EQ(client_.Insert("t", trace.keys[pos], 1), StatusCode::kOk);
    } else {
      ASSERT_EQ(
          client_.InsertBatch(
              "t", std::span<const uint32_t>(trace.keys.data() + pos, chunk),
              std::span<const int64_t>(ones.data() + pos, chunk)),
          StatusCode::kOk);
    }
    pos += chunk;
  }

  ConcurrentDaVinci reference(kShards, kTenantBytes, seed);
  reference.InsertBatch(trace.keys, ones);

  // Bit-equivalence at the strongest level: the serialized merged
  // snapshots are byte-identical.
  std::shared_ptr<Tenant> tenant = server_->registry().Find("t");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(SerializedSnapshot(tenant->engine()),
            SerializedSnapshot(reference));
}

TEST_F(ServerTest, AllNineTasksMatchInProcessAnswers) {
  const uint64_t seed = testing::TestSeed(23);
  DAVINCI_ANNOUNCE_SEED(seed);
  Trace trace_a = BuildSkewedTrace("a", 50000, 4000, 1.0, seed);
  Trace trace_b = BuildSkewedTrace("b", 50000, 4000, 1.0, seed + 1);
  std::vector<int64_t> ones_a(trace_a.keys.size(), 1);
  std::vector<int64_t> ones_b(trace_b.keys.size(), 1);

  ASSERT_EQ(client_.CreateTenant("a", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  ASSERT_EQ(client_.CreateTenant("b", kShards, kTenantBytes, seed),
            StatusCode::kOk);
  ASSERT_EQ(client_.InsertBatch("a", trace_a.keys, ones_a), StatusCode::kOk);
  ASSERT_EQ(client_.InsertBatch("b", trace_b.keys, ones_b), StatusCode::kOk);

  ConcurrentDaVinci ref_a(kShards, kTenantBytes, seed);
  ConcurrentDaVinci ref_b(kShards, kTenantBytes, seed);
  ref_a.InsertBatch(trace_a.keys, ones_a);
  ref_b.InsertBatch(trace_b.keys, ones_b);
  DaVinciSketch snap_a = ref_a.Snapshot();
  DaVinciSketch snap_b = ref_b.Snapshot();

  // Task 1: frequency (spot keys + batch).
  std::vector<uint32_t> probe(trace_a.keys.begin(),
                              trace_a.keys.begin() + 512);
  probe.push_back(0xdeadbeef);  // absent key
  for (uint32_t key : std::vector<uint32_t>(probe.begin(), probe.begin() + 32)) {
    int64_t wire = -1;
    ASSERT_EQ(client_.Query("a", key, &wire), StatusCode::kOk);
    EXPECT_EQ(wire, ref_a.Query(key)) << "key=" << key;
  }
  std::vector<int64_t> wire_batch;
  ASSERT_EQ(client_.QueryBatch("a", probe, &wire_batch), StatusCode::kOk);
  EXPECT_EQ(wire_batch, ref_a.QueryBatch(probe));

  // Task 2: heavy hitters.
  std::vector<std::pair<uint32_t, int64_t>> wire_pairs;
  ASSERT_EQ(client_.HeavyHitters("a", 100, &wire_pairs), StatusCode::kOk);
  EXPECT_EQ(wire_pairs, ref_a.HeavyHitters(100));

  // Task 3: heavy changers (tenant a vs tenant b).
  ASSERT_EQ(client_.HeavyChangers("a", "b", 50, &wire_pairs),
            StatusCode::kOk);
  EXPECT_EQ(wire_pairs, snap_a.HeavyChangers(snap_b, 50));

  // Task 4: cardinality — IEEE-754 bit pattern identical.
  double wire_double = 0;
  ASSERT_EQ(client_.Cardinality("a", &wire_double), StatusCode::kOk);
  double local_double = ref_a.EstimateCardinality();
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);

  // Task 5: flow-size distribution.
  std::vector<std::pair<int64_t, int64_t>> wire_dist;
  ASSERT_EQ(client_.Distribution("a", &wire_dist), StatusCode::kOk);
  std::vector<std::pair<int64_t, int64_t>> local_dist;
  for (const auto& [size, flows] : snap_a.Distribution()) {
    local_dist.emplace_back(size, flows);
  }
  EXPECT_EQ(wire_dist, local_dist);

  // Task 6: entropy.
  ASSERT_EQ(client_.Entropy("a", &wire_double), StatusCode::kOk);
  local_double = snap_a.EstimateEntropy();
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);

  // Task 7: union cardinality.
  ASSERT_EQ(client_.UnionCardinality("a", "b", &wire_double), StatusCode::kOk);
  {
    DaVinciSketch merged = ref_a.Snapshot();
    merged.Merge(snap_b);
    local_double = merged.EstimateCardinality();
  }
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);

  // Task 8: per-key signed difference.
  ASSERT_EQ(client_.DifferenceQuery("a", "b", probe, &wire_batch),
            StatusCode::kOk);
  {
    DaVinciSketch diff = ref_a.Snapshot();
    diff.Subtract(snap_b);
    EXPECT_EQ(wire_batch, diff.QueryBatch(probe));
  }

  // Task 9: inner join size.
  ASSERT_EQ(client_.InnerProduct("a", "b", &wire_double), StatusCode::kOk);
  local_double = DaVinciSketch::InnerProduct(snap_a, snap_b);
  EXPECT_EQ(std::memcmp(&wire_double, &local_double, sizeof(double)), 0);
}

TEST_F(ServerTest, WindowedTenantHeavyChangers) {
  ASSERT_EQ(client_.CreateTenant("w", kShards, kTenantBytes, 5, /*window=*/4),
            StatusCode::kOk);
  ASSERT_EQ(client_.CreateTenant("plain", kShards, kTenantBytes, 5),
            StatusCode::kOk);

  std::vector<uint32_t> epoch1(2000, 42);  // key 42 hot in epoch 1
  std::vector<int64_t> ones(epoch1.size(), 1);
  ASSERT_EQ(client_.InsertBatch("w", epoch1, ones), StatusCode::kOk);
  uint64_t epoch = 0;
  ASSERT_EQ(client_.AdvanceEpoch("w", &epoch), StatusCode::kOk);
  EXPECT_EQ(epoch, 1u);
  std::vector<uint32_t> epoch2(2000, 99);  // key 99 hot in epoch 2
  ASSERT_EQ(client_.InsertBatch("w", epoch2, ones), StatusCode::kOk);

  std::vector<std::pair<uint32_t, int64_t>> wire_pairs;
  ASSERT_EQ(client_.WindowHeavyChangers("w", 500, &wire_pairs),
            StatusCode::kOk);
  std::shared_ptr<Tenant> tenant = server_->registry().Find("w");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(wire_pairs, tenant->WindowHeavyChangers(500));
  EXPECT_FALSE(wire_pairs.empty());

  // A window query against an unwindowed tenant is a usage error, not
  // silence.
  EXPECT_EQ(client_.WindowHeavyChangers("plain", 500, &wire_pairs),
            StatusCode::kBadArgument);
}

TEST_F(ServerTest, CrossTenantGeometryMismatchIsRejected) {
  ASSERT_EQ(client_.CreateTenant("s1", kShards, kTenantBytes, 1),
            StatusCode::kOk);
  // Different seed => different hash functions => not mergeable.
  ASSERT_EQ(client_.CreateTenant("s2", kShards, kTenantBytes, 2),
            StatusCode::kOk);

  double out_d = 0;
  std::vector<std::pair<uint32_t, int64_t>> out_pairs;
  std::vector<int64_t> out_counts;
  std::vector<uint32_t> keys{1, 2, 3};
  EXPECT_EQ(client_.UnionCardinality("s1", "s2", &out_d),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.HeavyChangers("s1", "s2", 10, &out_pairs),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.DifferenceQuery("s1", "s2", keys, &out_counts),
            StatusCode::kBadArgument);
  EXPECT_EQ(client_.InnerProduct("s1", "s2", &out_d),
            StatusCode::kBadArgument);
  // The daemon survived every rejected pairing.
  EXPECT_EQ(client_.Ping(), StatusCode::kOk);
}

TEST_F(ServerTest, ResizeTenantRebuildsLiveAndEnforcesQuota) {
  const uint64_t seed = testing::TestSeed(31);
  DAVINCI_ANNOUNCE_SEED(seed);
  ASSERT_EQ(client_.CreateTenant("elastic", kShards, kTenantBytes, 9),
            StatusCode::kOk);
  Trace trace = BuildSkewedTrace("resize", 40000, 4000, 1.0, seed);
  std::vector<int64_t> counts(trace.keys.size(), 1);
  ASSERT_EQ(client_.InsertBatch("elastic", trace.keys, counts),
            StatusCode::kOk);
  int64_t heavy_before = 0;
  ASSERT_EQ(client_.Query("elastic", trace.keys.front(), &heavy_before),
            StatusCode::kOk);

  // Grow 2x: the reply reports the real post-resize footprint and the
  // tenant keeps serving with its state migrated.
  uint64_t new_bytes = 0;
  ASSERT_EQ(client_.ResizeTenant("elastic", 2 * kTenantBytes, &new_bytes),
            StatusCode::kOk);
  EXPECT_GT(new_bytes, kTenantBytes);
  int64_t heavy_after = 0;
  ASSERT_EQ(client_.Query("elastic", trace.keys.front(), &heavy_after),
            StatusCode::kOk);
  // The heavy key's estimate survives migration (promotion-threshold
  // slack is the only mass a rebuild may shed per flow).
  EXPECT_GE(heavy_after, heavy_before - 64);
  EXPECT_LE(heavy_after, heavy_before + 64);

  // Provenance lands in kHealth.
  HealthReply health;
  ASSERT_EQ(client_.Health("elastic", &health), StatusCode::kOk);
  EXPECT_EQ(health.resizes_applied, 1u);
  EXPECT_EQ(health.resizes_rejected, 0u);
  EXPECT_GT(health.resize_bytes_after, health.resize_bytes_before);
  EXPECT_EQ(health.resize_last_trigger,
            static_cast<uint32_t>(obs::ResizeHealth::kAdmin));

  // Quota: a capped tenant admits in-quota resizes and rejects past the
  // ceiling with kQuotaExceeded (recorded as a rejection, state intact).
  ASSERT_EQ(client_.CreateTenant("capped", kShards, kTenantBytes, 9,
                                 /*window_epochs=*/0,
                                 /*max_bytes=*/2 * kTenantBytes),
            StatusCode::kOk);
  EXPECT_EQ(client_.CreateTenant("greedy", kShards, 4 * kTenantBytes, 9,
                                 /*window_epochs=*/0,
                                 /*max_bytes=*/2 * kTenantBytes),
            StatusCode::kQuotaExceeded);
  ASSERT_EQ(client_.ResizeTenant("capped", 2 * kTenantBytes, &new_bytes),
            StatusCode::kOk);
  EXPECT_EQ(client_.ResizeTenant("capped", 4 * kTenantBytes, &new_bytes),
            StatusCode::kQuotaExceeded);
  ASSERT_EQ(client_.Health("capped", &health), StatusCode::kOk);
  EXPECT_EQ(health.resizes_applied, 1u);
  EXPECT_GE(health.resizes_rejected, 1u);

  // Degenerate budgets and missing tenants get clean errors.
  EXPECT_EQ(client_.ResizeTenant("elastic", 0), StatusCode::kBadArgument);
  EXPECT_EQ(client_.ResizeTenant("ghost", kTenantBytes),
            StatusCode::kNoSuchTenant);
  // Truncated kResizeTenant: name but no budget.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kResizeTenant));
    writer.Str("elastic");
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
}

TEST_F(ServerTest, HostileRequestsGetCleanErrors) {
  ASSERT_EQ(client_.CreateTenant("safe", kShards, kTenantBytes, 3),
            StatusCode::kOk);
  ASSERT_EQ(client_.Insert("safe", 7, 5), StatusCode::kOk);

  // Unknown opcode: error reply, connection survives.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(0xEE);
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kUnknownOp);
  }
  // Wrong protocol version.
  {
    WireWriter writer;
    writer.U8(0x42);
    writer.U8(static_cast<uint8_t>(Op::kPing));
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kBadVersion);
  }
  // Truncated payload: kQuery without the key.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kQuery));
    writer.Str("safe");
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // Trailing garbage after a well-formed request.
  {
    std::string body = Client::QueryRequest("safe", 7);
    body += "junk";
    std::string response;
    ASSERT_TRUE(client_.Call(body, &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // A batch whose declared key count overruns the actual bytes.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kInsertBatch));
    writer.Str("safe");
    writer.U32(1000000);  // ...but no key bytes follow
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // Truncated kExportSketch: name but no format byte.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kExportSketch));
    writer.Str("safe");
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // kImportMerge whose declared image count overruns the actual bytes.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kImportMerge));
    writer.Str("safe");
    writer.U32(3);  // ...but no (height, blob) entries follow
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // kImportMerge with a blob length prefix past the frame's end.
  {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(static_cast<uint8_t>(Op::kImportMerge));
    writer.Str("safe");
    writer.U32(1);
    writer.U32(0);           // source height
    writer.U32(0xFFFFFF00);  // blob "length" with no bytes behind it
    std::string response;
    ASSERT_TRUE(client_.Call(writer.Take(), &response));
    EXPECT_EQ(Client::ParseStatus(response), StatusCode::kMalformed);
  }
  // The connection is still healthy and tenant state unharmed.
  int64_t count = 0;
  ASSERT_EQ(client_.Query("safe", 7, &count), StatusCode::kOk);
  EXPECT_EQ(count, 5);
}

TEST_F(ServerTest, OversizedLengthPrefixClosesOnlyThatConnection) {
  ASSERT_EQ(client_.CreateTenant("victim", kShards, kTenantBytes, 4),
            StatusCode::kOk);
  ASSERT_EQ(client_.Insert("victim", 1, 9), StatusCode::kOk);

  Client attacker;
  ASSERT_TRUE(attacker.Connect(server_->port()));
  uint32_t huge = kMaxFrameBytes + 1;
  ASSERT_TRUE(attacker.SendRaw(&huge, sizeof(huge)));
  std::string response;
  ASSERT_TRUE(attacker.ReadResponse(&response));
  EXPECT_EQ(Client::ParseStatus(response), StatusCode::kTooLarge);
  // The stream cannot be resynchronized: the server closes it.
  EXPECT_FALSE(attacker.ReadResponse(&response));

  Client zero_attacker;
  ASSERT_TRUE(zero_attacker.Connect(server_->port()));
  uint32_t zero = 0;
  ASSERT_TRUE(zero_attacker.SendRaw(&zero, sizeof(zero)));
  ASSERT_TRUE(zero_attacker.ReadResponse(&response));
  EXPECT_EQ(Client::ParseStatus(response), StatusCode::kTooLarge);
  EXPECT_FALSE(zero_attacker.ReadResponse(&response));

  // The original connection and tenant never noticed.
  int64_t count = 0;
  ASSERT_EQ(client_.Query("victim", 1, &count), StatusCode::kOk);
  EXPECT_EQ(count, 9);
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  ASSERT_EQ(client_.CreateTenant("p", kShards, kTenantBytes, 6),
            StatusCode::kOk);
  for (uint32_t key = 0; key < 64; ++key) {
    ASSERT_EQ(client_.Insert("p", key, static_cast<int64_t>(key) + 1),
              StatusCode::kOk);
  }
  // Send 64 queries back-to-back, then read 64 replies: order preserved.
  for (uint32_t key = 0; key < 64; ++key) {
    ASSERT_TRUE(client_.SendRequest(Client::QueryRequest("p", key)));
  }
  for (uint32_t key = 0; key < 64; ++key) {
    std::string response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    ASSERT_EQ(Client::ParseStatus(response), StatusCode::kOk);
    ASSERT_EQ(response.size(), 1 + sizeof(int64_t));
    int64_t count = 0;
    std::memcpy(&count, response.data() + 1, sizeof(count));
    EXPECT_EQ(count, static_cast<int64_t>(key) + 1) << "key=" << key;
  }
}

// ---------------------------------------------------------------------------
// Wire pinning. A loopback proxy in front of an in-process dispatcher
// records every frame the typed Client sends and the reply it gets back, so
// one table can pin, per opcode: the exact request bytes of one fixed call,
// the reply bytes, what the Client decoded from them, and the statuses the
// dispatcher gives the same body one byte short and one byte long.

// Bytes as lowercase hex; payloads over 64 bytes (sketch images) as their
// size plus FNV-1a 64 digest.
std::string Pin(const std::string& bytes) {
  char buf[48];
  std::string out;
  if (bytes.size() <= 64) {
    for (unsigned char c : bytes) {
      std::snprintf(buf, sizeof(buf), "%02x", c);
      out += buf;
    }
    return out;
  }
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  std::snprintf(buf, sizeof(buf), "%zu:%016" PRIx64, bytes.size(), hash);
  return buf;
}

class RecordingProxy {
 public:
  explicit RecordingProxy(RequestDispatcher* dispatcher)
      : dispatcher_(dispatcher) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        ::listen(listen_fd_, 1) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
            0) {
      port_ = ntohs(addr.sin_port);
    }
    thread_ = std::thread([this] { Serve(); });
  }
  ~RecordingProxy() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes a pending accept()
    thread_.join();
    ::close(listen_fd_);
  }
  RecordingProxy(const RecordingProxy&) = delete;
  RecordingProxy& operator=(const RecordingProxy&) = delete;

  uint16_t port() const { return port_; }
  size_t frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return exchanges_.size();
  }
  std::pair<std::string, std::string> Last() const {
    std::lock_guard<std::mutex> lock(mu_);
    return exchanges_.empty() ? std::pair<std::string, std::string>{}
                              : exchanges_.back();
  }

 private:
  static bool ReadAll(int fd, void* data, size_t size) {
    char* bytes = static_cast<char*>(data);
    while (size > 0) {
      ssize_t n = ::recv(fd, bytes, size, 0);
      if (n <= 0) return false;
      bytes += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }

  void Serve() {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    for (;;) {
      uint32_t len = 0;
      if (!ReadAll(fd, &len, sizeof(len))) break;
      std::string body(len, '\0');
      if (!ReadAll(fd, body.data(), len)) break;
      std::string reply = dispatcher_->Handle(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(body.data()), body.size()));
      {
        std::lock_guard<std::mutex> lock(mu_);
        exchanges_.emplace_back(body, reply);
      }
      std::string frame = Frame(reply);
      if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(frame.size())) {
        break;
      }
    }
    ::close(fd);
  }

  RequestDispatcher* dispatcher_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> exchanges_;
  std::thread thread_;  // last: Serve() uses every member above
};

// Renders what a typed Client call decoded, so the table pins the client's
// decode as well as the bytes it was decoded from.
struct Decoded {
  std::string out;
  explicit Decoded(StatusCode status) : out(StatusName(status)) {}
  Decoded& operator<<(uint64_t v) { return Word(std::to_string(v)); }
  Decoded& operator<<(int64_t v) { return Word(std::to_string(v)); }
  Decoded& operator<<(uint32_t v) { return Word(std::to_string(v)); }
  Decoded& operator<<(bool v) { return Word(v ? "true" : "false"); }
  Decoded& operator<<(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return Word(buf);
  }
  Decoded& operator<<(const std::string& v) { return Word(v); }
  template <typename A, typename B>
  Decoded& operator<<(const std::vector<std::pair<A, B>>& v) {
    Word("[");
    for (const auto& [a, b] : v) {
      Word(std::to_string(a) + ":" + std::to_string(b));
    }
    return Word("]");
  }
  template <typename T>
  Decoded& operator<<(const std::vector<T>& v) {
    Word("[");
    for (const T& x : v) *this << x;
    return Word("]");
  }
  operator std::string() const { return out; }

 private:
  Decoded& Word(const std::string& w) {
    out += ' ';
    out += w;
    return *this;
  }
};

struct WirePin {
  const char* op;
  std::function<std::string(Client&)> call;
  const char* request;
  const char* reply;
  const char* decoded;
  StatusCode truncated;  // the request body minus its last byte
  StatusCode trailing;   // the request body plus one zero byte
};

TEST(WirePinTest, EveryOpcodeRequestReplyAndErrorStatusesArePinned) {
  TenantRegistry registry("");
  ASSERT_EQ(registry.Create("b", TenantOptions{2, 16 * 1024, 7, 0}),
            RegistryResult::kOk);
  ASSERT_EQ(registry.Create("w", TenantOptions{1, 8 * 1024, 7, 2}),
            RegistryResult::kOk);
  ASSERT_EQ(registry.Create("h", TenantOptions{1, 4 * 1024, 9, 0, 64 * 1024}),
            RegistryResult::kOk);
  ASSERT_EQ(registry.Create("x", TenantOptions{1, 4 * 1024, 7, 0}),
            RegistryResult::kOk);
  {
    std::vector<uint32_t> keys{1, 2, 2, 3, 3, 3, 7, 8, 9};
    std::vector<int64_t> counts{4, 1, 1, 2, 2, 2, 6, 1, 1};
    registry.Find("b")->InsertBatch(keys, counts);
    registry.Find("w")->InsertBatch(keys, counts);
  }
  RequestDispatcher dispatcher(&registry);
  RecordingProxy proxy(&dispatcher);
  ASSERT_NE(proxy.port(), 0);
  Client client;
  ASSERT_TRUE(client.Connect(proxy.port()));

  using Pairs = std::vector<std::pair<uint32_t, int64_t>>;
  Client::ExportedSketch exported;
  const StatusCode kMal = StatusCode::kMalformed;
  const std::vector<WirePin> pins = {
      {"kPing", [](Client& c) { return Decoded(c.Ping()); },
       "0101",
       "00",
       "ok",
       kMal, kMal},
      {"kCreateTenant",
       [](Client& c) { return Decoded(c.CreateTenant("a", 2, 16384, 7)); },
       "0102010061020000000040000000000000070000000000000000000000000000"
       "0000000000",
       "00",
       "ok",
       kMal, kMal},
      {"kInsert", [](Client& c) { return Decoded(c.Insert("a", 1, 5)); },
       "010a010061010000000500000000000000",
       "00",
       "ok",
       kMal, kMal},
      {"kInsertBatch",
       [](Client& c) {
         std::vector<uint32_t> keys{1, 2, 3, 4, 5, 1, 1, 2};
         std::vector<int64_t> counts{1, 2, 3, 4, 5, 6, 7, 8};
         return Decoded(c.InsertBatch("a", keys, counts));
       },
       "109:820b1edcae8194d4",
       "00",
       "ok",
       kMal, kMal},
      {"kQuery",
       [](Client& c) {
         int64_t v = 0;
         StatusCode s = c.Query("a", 1, &v);
         return Decoded(s) << v;
       },
       "011401006101000000",
       "001300000000000000",
       "ok 19",
       kMal, kMal},
      {"kQueryBatch",
       [](Client& c) {
         std::vector<int64_t> v;
         StatusCode s = c.QueryBatch("a", std::vector<uint32_t>{1, 2, 9}, &v);
         return Decoded(s) << v;
       },
       "011e01006103000000010000000200000009000000",
       "000300000013000000000000000a000000000000000000000000000000",
       "ok [ 19 10 0 ]",
       kMal, kMal},
      {"kHeavyHitters",
       [](Client& c) {
         Pairs v;
         StatusCode s = c.HeavyHitters("a", 3, &v);
         return Decoded(s) << v;
       },
       "01150100610300000000000000",
       "0004000000050000000500000000000000010000001300000000000000020000"
       "000a00000000000000040000000400000000000000",
       "ok [ 5:5 1:19 2:10 4:4 ]",
       kMal, kMal},
      {"kHeavyChangers",
       [](Client& c) {
         Pairs v;
         StatusCode s = c.HeavyChangers("a", "b", 2, &v);
         return Decoded(s) << v;
       },
       "01160100610100620200000000000000",
       "77:017d451509e8e3be",
       "ok [ 5:5 3:-3 1:15 2:8 7:-6 4:4 ]",
       kMal, kMal},
      {"kCardinality",
       [](Client& c) {
         double v = 0;
         StatusCode s = c.Cardinality("a", &v);
         return Decoded(s) << v;
       },
       "0117010061",
       "000000000000001440",
       "ok 0x1.4p+2",
       kMal, kMal},
      {"kDistribution",
       [](Client& c) {
         std::vector<std::pair<int64_t, int64_t>> v;
         StatusCode s = c.Distribution("a", &v);
         return Decoded(s) << v;
       },
       "0118010061",
       "85:43eb8603a5c7c880",
       "ok [ 3:1 4:1 5:1 10:1 19:1 ]",
       kMal, kMal},
      {"kEntropy",
       [](Client& c) {
         double v = 0;
         StatusCode s = c.Entropy("a", &v);
         return Decoded(s) << v;
       },
       "0119010061",
       "00b9522dbe4d02f63f",
       "ok 0x1.6024dbe2d52b9p+0",
       kMal, kMal},
      {"kUnionCardinality",
       [](Client& c) {
         double v = 0;
         StatusCode s = c.UnionCardinality("a", "b", &v);
         return Decoded(s) << v;
       },
       "011a010061010062",
       "000000000000002040",
       "ok 0x1p+3",
       kMal, kMal},
      {"kDifferenceQuery",
       [](Client& c) {
         std::vector<int64_t> v;
         StatusCode s =
             c.DifferenceQuery("a", "b", std::vector<uint32_t>{1, 2, 7}, &v);
         return Decoded(s) << v;
       },
       "011b01006101006203000000010000000200000007000000",
       "00030000000f000000000000000800000000000000faffffffffffffff",
       "ok [ 15 8 -6 ]",
       kMal, kMal},
      {"kInnerProduct",
       [](Client& c) {
         double v = 0;
         StatusCode s = c.InnerProduct("a", "b", &v);
         return Decoded(s) << v;
       },
       "011c010061010062",
       "000000000000805c40",
       "ok 0x1.c8p+6",
       kMal, kMal},
      {"kAdvanceEpoch",
       [](Client& c) {
         uint64_t v = 0;
         StatusCode s = c.AdvanceEpoch("w", &v);
         return Decoded(s) << v;
       },
       "0105010077",
       "000100000000000000",
       "ok 1",
       kMal, kMal},
      {"kWindowHeavyChangers",
       [](Client& c) {
         Pairs v;
         StatusCode s = c.WindowHeavyChangers("w", 1, &v);
         return Decoded(s) << v;
       },
       "011f0100770100000000000000",
       "000400000003000000faffffffffffffff01000000fcffffffffffffff020000"
       "00feffffffffffffff07000000faffffffffffffff",
       "ok [ 3:-6 1:-4 2:-2 7:-6 ]",
       kMal, kMal},
      {"kCheckpoint",
       [](Client& c) {
         bool v = true;
         StatusCode s = c.Checkpoint("a", &v);
         return Decoded(s) << v;
       },
       "0106010061",
       "0000",
       "ok false",
       kMal, kMal},
      {"kHealth",
       [](Client& c) {
         HealthReply v;
         StatusCode s = c.Health("h", &v);
         return Decoded(s) << v.shards << v.memory_bytes << v.inserts
                           << v.queries << v.epoch << v.windowed
                           << v.merge_height << v.resizes_applied
                           << v.resizes_rejected << v.resize_bytes_before
                           << v.resize_bytes_after << v.resize_last_trigger;
       },
       "0107010068",
       "82:74842438b91f3704",
       "ok 1 8167 0 0 0 false 0 0 0 0 0 0",
       kMal, kMal},
      {"kFlushViews", [](Client& c) { return Decoded(c.FlushViews("a")); },
       "0108010061",
       "00",
       "ok",
       kMal, kMal},
      {"kListTenants",
       [](Client& c) {
         std::vector<std::string> v;
         StatusCode s = c.ListTenants(&v);
         return Decoded(s) << v;
       },
       "0104",
       "0005000000010061010062010068010077010078",
       "ok [ a b h w x ]",
       kMal, kMal},
      {"kExportSketch",
       [&exported](Client& c) {
         StatusCode s = c.ExportSketch("b", 1, &exported);
         return Decoded(s) << exported.height << Pin(exported.image);
       },
       "012801006201",
       "2673:746764a193995bc1",
       "ok 0 2664:8e60247386ddea21",
       kMal, kMal},
      {"kImportMerge",
       [&exported](Client& c) {
         uint32_t v = 0;
         StatusCode s = c.ImportMerge(
             "a", std::span<const Client::ExportedSketch>(&exported, 1), &v);
         return Decoded(s) << v;
       },
       "2681:5c789d56aeaf346a",
       "0001000000",
       "ok 1",
       kMal, kMal},
      {"kResizeTenant",
       [](Client& c) {
         uint64_t v = 0;
         StatusCode s = c.ResizeTenant("h", 8192, &v);
         return Decoded(s) << v;
       },
       "01320100680020000000000000",
       "00e71f000000000000",
       "ok 8167",
       kMal, kMal},
      {"kDropTenant", [](Client& c) { return Decoded(c.DropTenant("x")); },
       "0103010078",
       "00",
       "ok",
       kMal, kMal},
  };

  for (const WirePin& pin : pins) {
    SCOPED_TRACE(pin.op);
    size_t before = proxy.frames();
    std::string decoded = pin.call(client);
    ASSERT_EQ(proxy.frames(), before + 1);
    auto [request, reply] = proxy.Last();
    EXPECT_EQ(Pin(request), pin.request);
    EXPECT_EQ(Pin(reply), pin.reply);
    EXPECT_EQ(decoded, pin.decoded);

    std::string shorter = request.substr(0, request.size() - 1);
    std::string longer = request + std::string(1, '\0');
    EXPECT_EQ(Client::ParseStatus(dispatcher.Handle(std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(shorter.data()),
                  shorter.size()))),
              pin.truncated);
    EXPECT_EQ(Client::ParseStatus(dispatcher.Handle(std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(longer.data()),
                  longer.size()))),
              pin.trailing);
  }
  client.Close();
}

// Statuses whose answer depends on which check runs first. A body is built
// by hand so it can be wrong in exactly one way.
TEST(WirePinTest, OrderOfChecksStatusesArePinned) {
  TenantRegistry registry("");
  ASSERT_EQ(registry.Create("a", TenantOptions{1, 8 * 1024, 7, 0}),
            RegistryResult::kOk);
  ASSERT_EQ(registry.Create("other", TenantOptions{1, 8 * 1024, 8, 0}),
            RegistryResult::kOk);
  RequestDispatcher dispatcher(&registry);
  auto request = [](uint8_t op) {
    WireWriter writer;
    writer.U8(kProtocolVersion);
    writer.U8(op);
    return writer;
  };
  auto status = [&dispatcher](const WireWriter& writer) {
    const std::string& body = writer.str();
    return Client::ParseStatus(dispatcher.Handle(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(body.data()), body.size())));
  };
  auto op = [](Op o) { return static_cast<uint8_t>(o); };

  // Unknown opcodes, with and without a payload.
  for (uint8_t unknown : {uint8_t{0}, uint8_t{9}, uint8_t{0xEE}}) {
    SCOPED_TRACE(static_cast<int>(unknown));
    WireWriter bare = request(unknown);
    EXPECT_EQ(status(bare), StatusCode::kUnknownOp);
    WireWriter with_payload = request(unknown);
    with_payload.Str("a");
    EXPECT_EQ(status(with_payload), StatusCode::kUnknownOp);
  }
  {
    WireWriter w;
    w.U8(kProtocolVersion + 1);
    w.U8(op(Op::kPing));
    EXPECT_EQ(status(w), StatusCode::kBadVersion);
    WireWriter header_only;
    header_only.U8(kProtocolVersion);
    EXPECT_EQ(status(header_only), StatusCode::kMalformed);
  }
  // kImportMerge: n outside [1, kMaxImportImages] is kBadArgument before
  // any entry is parsed and before the tenant is looked up.
  for (uint32_t n : {0u, 65u}) {
    for (const char* name : {"a", "ghost"}) {
      WireWriter w = request(op(Op::kImportMerge));
      w.Str(name);
      w.U32(n);
      EXPECT_EQ(status(w), StatusCode::kBadArgument) << n << ' ' << name;
    }
  }
  // ...but a truncated count is kMalformed.
  {
    WireWriter w = request(op(Op::kImportMerge));
    w.Str("a");
    w.U8(1);
    EXPECT_EQ(status(w), StatusCode::kMalformed);
  }
  // kInsertBatch: a counts/keys length mismatch is kBadArgument, checked
  // before the tenant lookup; an empty counts vector means all-ones.
  for (const char* name : {"a", "ghost"}) {
    WireWriter w = request(op(Op::kInsertBatch));
    w.Str(name);
    w.Keys(std::vector<uint32_t>{1, 2});
    w.Counts(std::vector<int64_t>{1});
    EXPECT_EQ(status(w), StatusCode::kBadArgument) << name;
  }
  {
    WireWriter w = request(op(Op::kInsertBatch));
    w.Str("a");
    w.Keys(std::vector<uint32_t>{1, 2});
    w.Counts(std::vector<int64_t>{});
    EXPECT_EQ(status(w), StatusCode::kOk);
    WireWriter ghost = request(op(Op::kInsertBatch));
    ghost.Str("ghost");
    ghost.Keys(std::vector<uint32_t>{1, 2});
    ghost.Counts(std::vector<int64_t>{});
    EXPECT_EQ(status(ghost), StatusCode::kNoSuchTenant);
  }
  // kExportSketch: format > 1 is kBadArgument before the tenant lookup.
  for (const char* name : {"a", "ghost"}) {
    WireWriter w = request(op(Op::kExportSketch));
    w.Str(name);
    w.U8(2);
    EXPECT_EQ(status(w), StatusCode::kBadArgument) << name;
  }
  // kCreateTenant over its own quota is kQuotaExceeded, even when the name
  // or geometry is also invalid.
  for (const char* name : {"q", "../evil", "a"}) {
    WireWriter w = request(op(Op::kCreateTenant));
    w.Str(name);
    w.U32(0);
    w.U64(8192);
    w.U64(1);
    w.U32(0);
    w.U64(4096);
    EXPECT_EQ(status(w), StatusCode::kQuotaExceeded) << name;
  }
  {
    WireWriter w = request(op(Op::kCreateTenant));
    w.Str("a");
    w.U32(1);
    w.U64(8192);
    w.U64(1);
    w.U32(0);
    w.U64(0);
    EXPECT_EQ(status(w), StatusCode::kTenantExists);
  }
  // kResizeTenant: missing tenant first, then the budget checks.
  {
    WireWriter ghost = request(op(Op::kResizeTenant));
    ghost.Str("ghost");
    ghost.U64(0);
    EXPECT_EQ(status(ghost), StatusCode::kNoSuchTenant);
    WireWriter zero = request(op(Op::kResizeTenant));
    zero.Str("a");
    zero.U64(0);
    EXPECT_EQ(status(zero), StatusCode::kBadArgument);
  }
  // kWindowHeavyChangers: missing tenant, then the non-windowed tenant.
  for (const auto& [name, expected] :
       {std::pair{"ghost", StatusCode::kNoSuchTenant},
        std::pair{"a", StatusCode::kBadArgument}}) {
    WireWriter w = request(op(Op::kWindowHeavyChangers));
    w.Str(name);
    w.I64(1);
    EXPECT_EQ(status(w), expected) << name;
  }
  // Cross-tenant ops: a missing side is kNoSuchTenant, a geometry
  // mismatch kBadArgument.
  for (Op cross : {Op::kUnionCardinality, Op::kInnerProduct}) {
    for (const auto& [b, expected] :
         {std::pair{"ghost", StatusCode::kNoSuchTenant},
          std::pair{"other", StatusCode::kBadArgument},
          std::pair{"a", StatusCode::kOk}}) {
      WireWriter w = request(op(cross));
      w.Str("a");
      w.Str(b);
      EXPECT_EQ(status(w), expected) << static_cast<int>(cross) << ' ' << b;
    }
  }
  // A name over kMaxNameBytes is kMalformed, whatever follows it.
  {
    WireWriter w = request(op(Op::kDropTenant));
    w.Str(std::string(kMaxNameBytes + 1, 'n'));
    EXPECT_EQ(status(w), StatusCode::kMalformed);
  }
}

// A name past kMaxNameBytes has no canonical encoding (its u16 prefix
// truncates at 64 KiB, so the server would parse the name's tail as the
// next fields). The typed call refuses it with the status the server gives
// an over-long name, without writing a byte, and the connection stays
// usable.
TEST(ClientTest, OverLongNameIsRefusedBeforeTheSocket) {
  TenantRegistry registry("");
  ASSERT_EQ(registry.Create("a", TenantOptions{1, 8 * 1024, 7, 0}),
            RegistryResult::kOk);
  RequestDispatcher dispatcher(&registry);
  RecordingProxy proxy(&dispatcher);
  ASSERT_NE(proxy.port(), 0);
  Client client;
  ASSERT_TRUE(client.Connect(proxy.port()));

  for (size_t size : {size_t{70000}, size_t{65536 + 1}, kMaxNameBytes + 1}) {
    SCOPED_TRACE(size);
    const std::string name(size, 'n');
    EXPECT_EQ(client.CreateTenant(name, 1, 8 * 1024, 7),
              StatusCode::kMalformed);
    EXPECT_EQ(client.DropTenant(name), StatusCode::kMalformed);
    EXPECT_EQ(client.Insert(name, 1, 1), StatusCode::kMalformed);
    int64_t count = -1;
    EXPECT_EQ(client.Query(name, 1, &count), StatusCode::kMalformed);
    EXPECT_EQ(count, -1);
    double value = 0;
    EXPECT_EQ(client.UnionCardinality("a", name, &value),
              StatusCode::kMalformed);
    EXPECT_TRUE(Client::QueryRequest(name, 1).empty());
    EXPECT_TRUE(Client::InsertBatchRequest(name, {}, {}).empty());
  }
  EXPECT_EQ(proxy.frames(), 0u);
  EXPECT_EQ(client.Ping(), StatusCode::kOk);
  EXPECT_EQ(proxy.frames(), 1u);
  // The longest legal name still goes out.
  EXPECT_EQ(client.DropTenant(std::string(kMaxNameBytes, 'n')),
            StatusCode::kNoSuchTenant);
  EXPECT_EQ(proxy.frames(), 2u);
  client.Close();
}

// ---------------------------------------------------------------------------
// docs/SERVER.md §Opcodes has one row per table entry: name, number,
// request fields, reply fields. This walks the table and fails on a
// missing or extra row, or a row whose number or field list differs.

template <typename T>
std::string_view WireName() {
  using Dist = std::vector<std::pair<int64_t, int64_t>>;
  using Pairs = std::vector<std::pair<uint32_t, int64_t>>;
  if constexpr (std::is_same_v<T, bool>) return "bool";
  else if constexpr (std::is_same_v<T, uint8_t>) return "u8";
  else if constexpr (std::is_same_v<T, uint32_t>) return "u32";
  else if constexpr (std::is_same_v<T, uint64_t>) return "u64";
  else if constexpr (std::is_same_v<T, int64_t>) return "i64";
  else if constexpr (std::is_same_v<T, double>) return "f64";
  else if constexpr (std::is_same_v<T, std::string>) return "str";
  else if constexpr (std::is_same_v<T, std::vector<uint32_t>>) return "keys";
  else if constexpr (std::is_same_v<T, std::vector<int64_t>>) return "counts";
  else if constexpr (std::is_same_v<T, Pairs>) return "pairs";
  else if constexpr (std::is_same_v<T, Dist>) return "dist";
  else if constexpr (std::is_same_v<T, std::vector<std::string>>) return "names";
  else if constexpr (std::is_same_v<T, ExportedSketch>) return "image";
  else if constexpr (std::is_same_v<T, std::vector<ExportedSketch>>) {
    return "images";
  } else {
    static_assert(sizeof(T) == 0, "name this wire type in docs/SERVER.md");
  }
}

// "u32 key, i64 count" from a message's field types and kFieldNames; an
// empty message is "—".
template <typename Msg>
std::string Describe() {
  std::vector<std::string_view> types =
      []<typename... F>(std::tuple<F&...>*) {
        return std::vector<std::string_view>{WireName<F>()...};
      }(static_cast<decltype(std::declval<Msg&>().Fields())*>(nullptr));
  std::vector<std::string> names;
  std::istringstream in{std::string(Msg::kFieldNames)};
  for (std::string name; std::getline(in, name, ',');) {
    name.erase(0, name.find_first_not_of(' '));
    name.erase(name.find_last_not_of(' ') + 1);
    names.push_back(name);
  }
  if (types.empty()) return "—";
  EXPECT_EQ(types.size(), names.size()) << Msg::kFieldNames;
  std::string out;
  for (size_t i = 0; i < types.size() && i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string(types[i]) + " " + names[i];
  }
  return out;
}

struct DocRow {
  std::string number;
  std::string request;
  std::string reply;
};

// The §Opcodes table rows, keyed by op name ("kQuery").
std::map<std::string, DocRow> OpcodeRows(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, DocRow> rows;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("#", 0) == 0) in_section = line == "### Opcodes";
    if (!in_section || line.rfind("| `k", 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream cells_in(line.substr(1));
    for (std::string cell; std::getline(cells_in, cell, '|');) {
      std::string clean;
      for (char c : cell) {
        if (c != '`') clean += c;
      }
      clean.erase(0, clean.find_first_not_of(' '));
      clean.erase(clean.find_last_not_of(' ') + 1);
      cells.push_back(clean);
    }
    if (cells.size() < 4) continue;
    rows[cells[0]] = DocRow{cells[1], cells[2], cells[3]};
  }
  return rows;
}

TEST(OpTableTest, ServerDocHasOneMatchingRowPerOp) {
  std::map<std::string, DocRow> rows = OpcodeRows(DAVINCI_SERVER_DOC);
  ASSERT_FALSE(rows.empty()) << "no §Opcodes rows in " << DAVINCI_SERVER_DOC;
  size_t ops_in_table = 0;
  [&]<typename... E>(ops::List<E...>) {
    auto check = [&]<typename Entry>(std::type_identity<Entry>) {
      ++ops_in_table;
      const std::string name(Entry::kName);
      SCOPED_TRACE(name);
      auto row = rows.find(name);
      ASSERT_NE(row, rows.end()) << "no docs/SERVER.md row";
      EXPECT_EQ(row->second.number,
                std::to_string(static_cast<int>(Entry::kOp)));
      EXPECT_EQ(row->second.request, Describe<typename Entry::Request>());
      EXPECT_EQ(row->second.reply, Describe<typename Entry::Reply>());
    };
    (check(std::type_identity<E>{}), ...);
  }(ops::Table{});
  EXPECT_EQ(rows.size(), ops_in_table) << "a docs row names no table entry";
}

}  // namespace
}  // namespace davinci::server
