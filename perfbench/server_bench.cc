// Server benchmark: per-opcode wire latency of the multi-tenant sketch
// server, checked against exact answers (perfbench/README.md).
//
//   server_bench --workload analytics|mixed --seed N --seconds S
//                --trace 0|1 --work-dir DIR [--git-sha SHA]
//
// Starts an in-process SketchServer (shipped defaults: 3 workers) on
// loopback, creates 8 tenants x 4 shards x 1 MiB that share one sketch
// seed, and drives them through server::Client from at most two threads
// and two connections (an open-loop stream of inserts or checkpoints, and a
// closed-loop reader). Keys come from
// BuildSkewedTrace seeded by --seed; the server only ever sees the keys.
//
// Every latency percentile is exact (nearest rank over the raw per-op
// samples); a p99 leaves out the phase's two worst tenths (see
// KeptSamples). The reader waits for each reply by polling its socket, so
// its CPU never idles between requests (see SpinCall). The last stdout
// line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics for
// --trace 1. The line before it is a report with the run environment, the
// seed, per-op sample counts, generator lag and answer-error statistics.
//
// The traced run measures the workload untraced for half the time and
// traced for the other half. Traced ops replay the same request body down
// the stack (RequestDispatcher::Handle, then TenantRegistry::Find +
// ConcurrentDaVinci, then DaVinciSketch and the estimators). Reads replay
// on the served state, reached through SketchServer::registry(); inserts
// and checkpoints replay on a private copy of the tenant, so the served
// state is the one the untraced run has. Spans stay in memory and are
// summarized at exit. No program code is instrumented.

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <poll.h>
#include <unistd.h>

#include "core/concurrent_davinci.h"
#include "core/davinci_sketch.h"
#include "estimators/entropy.h"
#include "obs/health.h"
#include "obs/stats.h"
#include "server/client.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/tenant.h"
#include "workload/trace.h"

namespace davinci::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using server::Client;
using server::StatusCode;

// ---------------------------------------------------------------------------
// Fixed fleet geometry and workload shapes.

constexpr size_t kTenants = 8;
constexpr uint32_t kShards = 4;
constexpr uint64_t kTenantBytes = 1 << 20;
constexpr uint64_t kSketchSeed = 0x5eedULL;  // shared: tenant pairs union
constexpr size_t kBatchKeys = 4096;
constexpr size_t kQueryBatchKeys = 64;
// Trace slices of kBatchKeys go to tenant (slice % kTenants); the slice
// count is a multiple of kTenants so every pass hands each tenant the same
// slices.
constexpr size_t kSlices = kTenants * 128;
constexpr size_t kTraceKeys = kSlices * kBatchKeys;  // 4 Mi keys
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
// Preload insert batches in flight on the set-up connection, and batches
// per timed stretch of the preload (ingest_keys_per_s is the median rate
// of these stretches; a set-up has kSlices / kPreloadChunk of them).
constexpr size_t kPreloadWindow = 8;
constexpr size_t kPreloadChunk = 64;
// A p99 is taken over the measured phase cut into kWindows windows of equal
// time, less the kDroppedWindows whose own p99 is highest.
constexpr size_t kWindows = 10;
constexpr size_t kDroppedWindows = 2;
// Read cycles per tenant in the verification pass.
constexpr int kVerifyReps = 2;
// Traced inserts: every kTracedInsertStride-th batch. The stride is coprime
// to kTenants, so the traced batches cover every tenant.
constexpr uint64_t kTracedInsertStride = 7;
// Heavy-hitter threshold: flows above total / kHhDivisor.
constexpr int64_t kHhDivisor = 2000;

// Answer bounds pinned at this benchmark's scale (8 x 1 MiB tenants, 4 Mi
// trace keys); see perfbench/README.md for how they were chosen.
// Point answers: |est - f| <= max(abs, rel * f). The absolute allowance
// grows with the tenant's volume, one unit per kPointKeysPerAbsUnit keys:
// small flows are answered by the element filter, whose collision
// overcount grows with the keys it has absorbed.
constexpr double kPointRelTol = 0.05;
constexpr double kPointAbsTolMin = 64;
constexpr double kPointKeysPerAbsUnit = 16384;
constexpr double kHhMinRecall = 0.9;
constexpr double kHhMinPrecision = 0.9;
constexpr double kCardRelTol = 0.06;
constexpr double kEntropyRelTol = 0.15;
constexpr double kUnionRelTol = 0.08;

enum OpKind {
  kPoint, kBatch, kHh, kCard, kEntropy, kUnion, kInsert, kCheckpoint, kNumOps
};
constexpr std::array<const char*, kNumOps> kOpNames = {
    "point", "batch", "hh", "card", "entropy", "union", "insert", "checkpoint"};
// One closed-loop read cycle on one tenant. Every op repeats, so that even
// entropy and union, which take most of the cycle's time, keep over a
// thousand samples in a 45 s run once a p99 sets two tenths of the phase
// aside; point and batch cost little and get twice as many.
// Every cycle issues these ops in a fresh seeded order: each op is then as
// likely as any other to follow a long answer, to meet a write round or a
// checkpoint, or to pay the first decode of a new view, and no op's tail
// depends on where it sits in the cycle.
constexpr std::array<OpKind, 32> kReadMix = {
    kEntropy, kEntropy, kEntropy, kEntropy, kUnion, kUnion, kUnion, kUnion,
    kHh,      kHh,      kHh,      kHh,      kCard,  kCard,  kCard,  kCard,
    kPoint,   kPoint,   kPoint,   kPoint,   kPoint, kPoint, kPoint, kPoint,
    kBatch,   kBatch,   kBatch,   kBatch,   kBatch, kBatch, kBatch, kBatch};

bool WholeSketch(OpKind op) {
  return op == kHh || op == kCard || op == kEntropy || op == kUnion;
}

// Both workloads preload the fleet during set-up and run the closed-loop
// read mix beside one open-loop stream on a second connection: 4096-key
// insert batches (mixed) or checkpoint requests (analytics).
struct WorkloadSpec {
  std::string name;
  double skew = 1.1;
  size_t flows = kTraceKeys / 20;
  OpKind stream_op = kInsert;
  double stream_per_s = 0;
  uint64_t checkpoint_every = 0;
};

bool MakeSpec(const std::string& name, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "analytics") {
    // No writer: the views never change. A read-only fleet is still
    // checkpointed; 25 explicit checkpoints a second, round-robin over the
    // tenants, make about one read in 12 wait for a checkpoint round. That
    // stall mode, not the host's scheduling noise, then sets the read p99s.
    // A checkpoint neither republishes a view nor changes a sketch.
    spec->stream_op = kCheckpoint;
    spec->stream_per_s = 25;
    return true;
  }
  if (name == "mixed") {
    spec->skew = 0.9;
    spec->flows = kTraceKeys / 10;
    spec->stream_per_s = 25;
    // Each tenant auto-checkpoints every 2nd batch it receives, about 12
    // checkpoints a second over the fleet (and 512 during each preload). A
    // read that arrives during a checkpointing insert round waits for it,
    // and that happens to about one read in 20, well above the 1% a p99
    // looks at: the checkpoint stalls set the read p99s, rather than
    // sitting on their edge, where a slower host would also stall more
    // reads and move the p99 by more than it moves the stall. Write rounds
    // of either kind stall well under half the reads, so the p50s stay in
    // the unstalled mode.
    spec->checkpoint_every = 2 * kBatchKeys;
    return true;
  }
  return false;
}

std::string TenantName(size_t t) { return "t" + std::to_string(t); }

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

thread_local volatile double g_sink = 0;  // keeps replayed answers alive

// ---------------------------------------------------------------------------
// Statistics.

// Nearest-rank percentile over raw samples (p in (0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(
                                                      values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// The samples a p99 is taken over. The phase is cut into kWindows windows
// of equal time by when each request left; the kDroppedWindows windows
// whose own p99 is highest are set aside, and the rest are pooled. A
// burst of host interference a few seconds long then does not set the
// p99 of the run it falls in; a change that slows requests throughout the
// phase still moves every window.
std::vector<double> KeptSamples(const std::vector<double>& values,
                                const std::vector<double>& sent_s,
                                double seconds) {
  std::array<std::vector<double>, kWindows> windows;
  for (size_t i = 0; i < values.size(); ++i) {
    const double slot = sent_s[i] / seconds * static_cast<double>(kWindows);
    windows[static_cast<size_t>(std::clamp(
                slot, 0.0, static_cast<double>(kWindows - 1)))]
        .push_back(values[i]);
  }
  std::array<double, kWindows> own{};
  for (size_t w = 0; w < kWindows; ++w) own[w] = Percentile(windows[w], 0.99);
  std::array<size_t, kWindows> order{};
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return own[a] < own[b]; });
  std::vector<double> kept;
  for (size_t i = 0; i < kWindows - kDroppedWindows; ++i) {
    kept.insert(kept.end(), windows[order[i]].begin(), windows[order[i]].end());
  }
  return kept;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// VmHWM / VmRSS from /proc/self/status, in MiB.
double ProcStatusMib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::atof(line.c_str() + len + 1) / 1024.0;
    }
  }
  return 0;
}

// The host's CPU time split, from the aggregate line of /proc/stat: all
// ticks, and the ticks the hypervisor gave to other guests (steal).
struct CpuTicks {
  uint64_t total = 0, steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  stat >> cpu;
  for (int field = 0; field < 10; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// Holds the thread until `due`: sleeps most of the way, spins the rest so
// an open-loop request leaves on time.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(200);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

// ---------------------------------------------------------------------------
// Inputs and exact answers.

struct Fleet {
  Trace trace;
  // Times each slice was inserted into its tenant over the wire; rebuilt
  // for every server set up.
  std::vector<uint32_t> applied;

  std::span<const uint32_t> Slice(size_t s) const {
    return {trace.keys.data() + s * kBatchKeys, kBatchKeys};
  }
  static size_t TenantOf(size_t slice) { return slice % kTenants; }
};

// Exact answers for one tenant. Frequencies are a key-sorted vector
// rather than a hash map, so the load generator's own memory stays small
// and identical from run to run (rss_peak_mib is process-wide). The
// whole-sketch answers are computed once, so checking a reply takes
// microseconds and leaves no idle gap between requests.
struct Truth {
  std::vector<std::pair<uint32_t, int64_t>> freq;
  int64_t total = 0;
  double entropy = 0;
  size_t heavy = 0;             // flows above HhThreshold()
  double union_with_next = 0;   // distinct keys here or in tenant t + 1

  int64_t Freq(uint32_t key) const {
    auto it = std::lower_bound(freq.begin(), freq.end(),
                               std::pair<uint32_t, int64_t>{key, 0});
    return it != freq.end() && it->first == key ? it->second : 0;
  }
  int64_t HhThreshold() const { return std::max<int64_t>(1, total / kHhDivisor); }
};

std::vector<Truth> BuildTruth(const Fleet& fleet) {
  std::vector<Truth> truth(kTenants);
  std::vector<std::pair<uint32_t, int64_t>> weighted;
  for (size_t tenant = 0; tenant < kTenants; ++tenant) {
    Truth& t = truth[tenant];
    weighted.clear();
    for (size_t s = tenant; s < kSlices; s += kTenants) {
      const int64_t m = fleet.applied[s];
      if (m == 0) continue;
      for (uint32_t key : fleet.Slice(s)) weighted.emplace_back(key, m);
      t.total += m * static_cast<int64_t>(kBatchKeys);
    }
    std::sort(weighted.begin(), weighted.end());
    for (const auto& [key, m] : weighted) {
      if (!t.freq.empty() && t.freq.back().first == key) {
        t.freq.back().second += m;
      } else {
        t.freq.emplace_back(key, m);
      }
    }
    double h = 0;
    const double total = static_cast<double>(t.total);
    for (const auto& [key, f] : t.freq) {
      (void)key;
      const double p = static_cast<double>(f) / total;
      h -= p * std::log(p);
    }
    t.entropy = h;
    for (const auto& [key, f] : t.freq) {
      (void)key;
      if (f > t.HhThreshold()) ++t.heavy;
    }
  }
  for (size_t tenant = 0; tenant < kTenants; ++tenant) {
    const Truth& a = truth[tenant];
    size_t extra = 0;
    for (const auto& [key, f] : truth[(tenant + 1) % kTenants].freq) {
      (void)f;
      if (a.Freq(key) == 0) ++extra;
    }
    truth[tenant].union_with_next = static_cast<double>(a.freq.size() + extra);
  }
  return truth;
}

// Observed answer errors (reported so the pinned bounds can be audited).
struct ErrorStats {
  double point_max_rel = 0;  // over keys whose bound is the relative one
  double point_max_abs_small = 0;
  double hh_min_recall = 1, hh_min_precision = 1;
  double card_max_rel = 0, entropy_max_rel = 0, union_max_rel = 0;
  std::vector<std::string> failures;  // first few, for the report
  std::mutex failures_mu;               // the stream thread reports too

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 8) failures.push_back(what);
  }
};

bool CheckPoint(int64_t est, int64_t f, int64_t total, ErrorStats* err) {
  const double diff = std::fabs(static_cast<double>(est - f));
  const double fd = static_cast<double>(f);
  const double abs_tol = std::max(
      kPointAbsTolMin, static_cast<double>(total) / kPointKeysPerAbsUnit);
  if (kPointRelTol * fd >= abs_tol) {
    err->point_max_rel = std::max(err->point_max_rel, diff / fd);
  } else {
    err->point_max_abs_small = std::max(err->point_max_abs_small, diff);
  }
  return diff <= std::max(abs_tol, kPointRelTol * fd);
}

bool CheckRel(double est, double exact, double tol, double* worst) {
  const double rel = std::fabs(est - exact) / std::max(exact, 1e-12);
  *worst = std::max(*worst, rel);
  return rel <= tol;
}

// Heavy-hitter requests always ask for truth.HhThreshold().
bool CheckHeavyHitters(const std::vector<std::pair<uint32_t, int64_t>>& got,
                       const Truth& truth, ErrorStats* err) {
  const size_t true_count = truth.heavy;
  size_t hits = 0;
  for (const auto& [key, est] : got) {
    (void)est;
    if (truth.Freq(key) > truth.HhThreshold()) ++hits;
  }
  const double recall = true_count == 0 ? 1.0
                                        : static_cast<double>(hits) /
                                              static_cast<double>(true_count);
  const double precision = got.empty() ? (true_count == 0 ? 1.0 : 0.0)
                                       : static_cast<double>(hits) /
                                             static_cast<double>(got.size());
  err->hh_min_recall = std::min(err->hh_min_recall, recall);
  err->hh_min_precision = std::min(err->hh_min_precision, precision);
  return recall >= kHhMinRecall && precision >= kHhMinPrecision;
}

// ---------------------------------------------------------------------------
// Requests, their wire bodies, and the per-layer replays.

struct Request {
  OpKind op = kPoint;
  size_t tenant = 0;
  size_t partner = 0;  // union operand
  uint32_t key = 0;
  std::vector<uint32_t> keys;  // batch / insert
  size_t slice = 0;            // insert
  int64_t threshold = 0;       // hh
};

struct Answer {
  int64_t count = 0;
  std::vector<int64_t> counts;
  std::vector<std::pair<uint32_t, int64_t>> pairs;
  double value = 0;
};

// The request body exactly as Client frames it for this op.
std::string RequestBody(const Request& r) {
  using server::Op;
  using server::WireWriter;
  if (r.op == kPoint) return Client::QueryRequest(TenantName(r.tenant), r.key);
  if (r.op == kInsert) {
    return Client::InsertBatchRequest(TenantName(r.tenant), r.keys, {});
  }
  WireWriter w;
  w.U8(server::kProtocolVersion);
  switch (r.op) {
    case kBatch: w.U8(static_cast<uint8_t>(Op::kQueryBatch)); break;
    case kHh: w.U8(static_cast<uint8_t>(Op::kHeavyHitters)); break;
    case kCard: w.U8(static_cast<uint8_t>(Op::kCardinality)); break;
    case kEntropy: w.U8(static_cast<uint8_t>(Op::kEntropy)); break;
    default: w.U8(static_cast<uint8_t>(Op::kUnionCardinality)); break;
  }
  w.Str(TenantName(r.tenant));
  if (r.op == kBatch) w.Keys(r.keys);
  if (r.op == kHh) w.I64(r.threshold);
  if (r.op == kUnion) w.Str(TenantName(r.partner));
  return w.Take();
}

// One request and its reply, the reply awaited by polling the socket
// without blocking. The reader's CPU then never idles between send and
// reply. With a blocking read, every cheap read paid the guest's wake-up
// latency for an idle vCPU on top of the server's work, and on a KVM guest
// that latency moved by tens of microseconds from minute to minute:
// point_p50_us of identical runs fell into modes of about 25 and 60 us.
bool SpinCall(Client& client, const std::string& body, std::string* response) {
  if (!client.SendRequest(body)) return false;
  pollfd ready{client.fd(), POLLIN, 0};
  int n = 0;
  while ((n = ::poll(&ready, 1, 0)) == 0 || (n < 0 && errno == EINTR)) {
  }
  return n > 0 && client.ReadResponse(response);
}

// Decodes a read reply the way the Client's typed call for `op` does.
StatusCode ParseAnswer(OpKind op, const std::string& response, Answer* a) {
  const StatusCode status = Client::ParseStatus(response);
  if (status != StatusCode::kOk) return status;
  server::WireReader reader(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(response.data()) + 1,
      response.size() - 1));
  bool ok = false;
  switch (op) {
    case kPoint: ok = reader.I64(&a->count); break;
    case kBatch: ok = reader.Counts(&a->counts); break;
    case kHh: ok = reader.Pairs(&a->pairs); break;
    default: ok = reader.F64(&a->value); break;
  }
  return ok && reader.Done() ? StatusCode::kOk : StatusCode::kInternal;
}

// Inserts and checkpoints go through the Client's blocking typed calls;
// reads are sent as RequestBody frames through SpinCall.
StatusCode WireCall(Client& client, const Request& r, Answer* a) {
  const std::string name = TenantName(r.tenant);
  if (r.op == kInsert) return client.InsertBatch(name, r.keys, {});
  if (r.op == kCheckpoint) {
    bool written = false;
    const StatusCode status = client.Checkpoint(name, &written);
    return status == StatusCode::kOk && !written ? StatusCode::kInternal
                                                 : status;
  }
  std::string response;
  if (!SpinCall(client, RequestBody(r), &response)) {
    return StatusCode::kInternal;
  }
  return ParseAnswer(r.op, response, a);
}

// Per-layer spans of one thread, summarized at exit.
struct LayerSpans {
  std::array<std::vector<double>, kNumOps> wire_us, handle_us, engine_us,
      wire_bytes;
  // Whole-sketch probe (one per sampled tenant).
  std::vector<double> snapshot_all_us, snapshot_ms, cardinality_us,
      decode_first_ms, decode_repeat_us, query_batch_us, heavy_hitters_us,
      distribution_ms, entropy_ms, merge_ms, save_ms, load_ms, image_bytes,
      checkpoint_ms, checkpoint_bytes;

  void Append(const LayerSpans& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    for (int op = 0; op < kNumOps; ++op) {
      cat(wire_us[op], o.wire_us[op]);
      cat(handle_us[op], o.handle_us[op]);
      cat(engine_us[op], o.engine_us[op]);
      cat(wire_bytes[op], o.wire_bytes[op]);
    }
    cat(snapshot_all_us, o.snapshot_all_us);
    cat(snapshot_ms, o.snapshot_ms);
    cat(cardinality_us, o.cardinality_us);
    cat(decode_first_ms, o.decode_first_ms);
    cat(decode_repeat_us, o.decode_repeat_us);
    cat(query_batch_us, o.query_batch_us);
    cat(heavy_hitters_us, o.heavy_hitters_us);
    cat(distribution_ms, o.distribution_ms);
    cat(entropy_ms, o.entropy_ms);
    cat(merge_ms, o.merge_ms);
    cat(save_ms, o.save_ms);
    cat(load_ms, o.load_ms);
    cat(image_bytes, o.image_bytes);
    cat(checkpoint_ms, o.checkpoint_ms);
    cat(checkpoint_bytes, o.checkpoint_bytes);
  }
};

template <typename F>
double TimeUs(F&& f) {
  const auto t0 = Clock::now();
  f();
  return Micros(Clock::now() - t0);
}

// A private copy of a live tenant, for the replays that would otherwise
// change the served state: traced inserts and the checkpoint probe. It has
// its own registry and checkpoint directory, and its dispatcher never
// auto-checkpoints, so a replay neither adds volume to the live tenant nor
// touches its mutation clock. One per thread.
class Shadow {
 public:
  explicit Shadow(const fs::path& dir)
      : registry_(dir.string()), dispatcher_(&registry_) {}

  server::TenantRegistry& registry() { return registry_; }
  server::RequestDispatcher& dispatcher() { return dispatcher_; }

  // The live tenant's published shard images (no lock, no flush).
  static std::string Image(const server::Tenant& live) {
    std::ostringstream out;
    live.engine().SaveShards(out);
    return std::move(out).str();
  }

  // Makes the shadow tenant of the same name hold `image`; null on failure.
  std::shared_ptr<server::Tenant> Restore(const server::Tenant& live,
                                          const std::string& image) {
    std::shared_ptr<server::Tenant> tenant = registry_.Find(live.name());
    if (tenant == nullptr &&
        registry_.Create(live.name(), live.options(), &tenant) !=
            server::RegistryResult::kOk) {
      return nullptr;
    }
    std::istringstream in(image);
    return tenant->engine().RestoreShards(in) ? tenant : nullptr;
  }

 private:
  server::TenantRegistry registry_;
  server::RequestDispatcher dispatcher_;
};

// The ConcurrentDaVinci-layer call the dispatcher makes for `r`, with the
// TenantRegistry::Find in front of it.
void EngineReplay(server::TenantRegistry& registry, const Request& r) {
  std::shared_ptr<server::Tenant> tenant =
      registry.Find(TenantName(r.tenant));
  ConcurrentDaVinci& engine = tenant->engine();
  switch (r.op) {
    case kPoint: g_sink = static_cast<double>(engine.Query(r.key)); break;
    case kBatch:
      g_sink = static_cast<double>(engine.QueryBatch(r.keys).size());
      break;
    case kHh:
      g_sink = static_cast<double>(engine.HeavyHitters(r.threshold).size());
      break;
    case kCard: g_sink = engine.EstimateCardinality(); break;
    case kEntropy: g_sink = engine.Snapshot().EstimateEntropy(); break;
    case kUnion: {
      std::shared_ptr<server::Tenant> other =
          registry.Find(TenantName(r.partner));
      DaVinciSketch merged = engine.Snapshot();
      merged.Merge(other->engine().Snapshot());
      g_sink = merged.EstimateCardinality();
      break;
    }
    case kInsert: {
      static const std::vector<int64_t> ones(kBatchKeys, 1);
      engine.InsertBatch(r.keys, ones);
      break;
    }
    case kCheckpoint:
    case kNumOps: break;
  }
}

// DaVinciSketch / estimator / codec / checkpoint layers on one tenant's
// current state. Returns false when a shard image fails to load back or
// the checkpoint is not written.
bool SketchProbe(server::TenantRegistry& registry, Shadow& shadow, size_t t,
                 const std::vector<uint32_t>& batch_keys, int64_t threshold,
                 LayerSpans* spans) {
  std::shared_ptr<server::Tenant> tenant = registry.Find(TenantName(t));
  std::shared_ptr<server::Tenant> partner =
      registry.Find(TenantName((t + 1) % kTenants));
  ConcurrentDaVinci& engine = tenant->engine();

  std::vector<std::shared_ptr<const SketchView>> views;
  spans->snapshot_all_us.push_back(
      TimeUs([&] { views = engine.SnapshotAll(); }));
  spans->cardinality_us.push_back(
      TimeUs([&] { g_sink = engine.EstimateCardinality(); }));
  spans->heavy_hitters_us.push_back(TimeUs([&] {
    size_t n = 0;
    for (const auto& view : views) n += view->HeavyHitters(threshold).size();
    g_sink = static_cast<double>(n);
  }));

  DaVinciSketch merged(8 * 1024, 0);
  spans->snapshot_ms.push_back(
      TimeUs([&] { merged = engine.Snapshot(); }) / 1e3);
  spans->decode_first_ms.push_back(TimeUs([&] {
    g_sink = static_cast<double>(merged.DecodedFlows().size());
  }) / 1e3);
  spans->decode_repeat_us.push_back(TimeUs([&] {
    g_sink = static_cast<double>(merged.DecodedFlows().size());
  }));
  spans->query_batch_us.push_back(TimeUs([&] {
    g_sink = static_cast<double>(merged.QueryBatch(batch_keys).size());
  }));
  std::map<int64_t, int64_t> dist;
  spans->distribution_ms.push_back(
      TimeUs([&] { dist = merged.Distribution(); }) / 1e3);
  spans->entropy_ms.push_back(
      TimeUs([&] { g_sink = EntropyFromDistribution(dist); }) / 1e3);
  DaVinciSketch other = partner->engine().Snapshot();
  spans->merge_ms.push_back(TimeUs([&] { merged.Merge(other); }) / 1e3);

  // Codec: the tenant's shard images, compressed.
  std::vector<std::string> images;
  spans->save_ms.push_back(TimeUs([&] {
    for (const auto& view : views) {
      std::ostringstream out;
      view->sketch().Save(out, SketchFormat::kCompressed);
      images.push_back(std::move(out).str());
    }
  }) / 1e3);
  double bytes = 0;
  for (const std::string& image : images) bytes += static_cast<double>(image.size());
  spans->image_bytes.push_back(bytes);
  bool loaded = true;
  spans->load_ms.push_back(TimeUs([&] {
    for (const std::string& image : images) {
      std::istringstream in(image);
      DaVinciSketch sketch(8 * 1024, 0);
      loaded = DaVinciSketch::Load(in, &sketch) && loaded;
    }
  }) / 1e3);
  if (!loaded) return false;

  // Tenant layer: one DVCK checkpoint of the same state, written through
  // the shadow's registry.
  std::shared_ptr<server::Tenant> copy =
      shadow.Restore(*tenant, Shadow::Image(*tenant));
  if (copy == nullptr) return false;
  bool written = false;
  spans->checkpoint_ms.push_back(
      TimeUs([&] { written = shadow.registry().Checkpoint(*copy); }) / 1e3);
  std::error_code ec;
  const auto size = fs::file_size(
      fs::path(shadow.registry().checkpoint_dir()) / (TenantName(t) + ".dvck"),
      ec);
  if (!written || ec) return false;
  spans->checkpoint_bytes.push_back(static_cast<double>(size));
  return true;
}

// ---------------------------------------------------------------------------
// One measured phase: per-op samples of one or two threads.

struct PhaseStats {
  std::array<std::vector<double>, kNumOps> latency_us;
  // When each sample's request left (or was due), in seconds from `start`.
  std::array<std::vector<double>, kNumOps> sent_s;
  Clock::time_point start;
  std::vector<double> stream_lag_us;
  uint64_t attempted = 0, failed = 0;
  uint64_t reads = 0, keys_ingested = 0, checkpoints = 0;
  double seconds = 0;
  // Whole-sketch wire requests, and every IFP decode the process ran
  // during the phase (read requests decode shard views as they change).
  uint64_t whole_sketch_requests = 0, decodes = 0;

  void Append(const PhaseStats& o) {
    for (int op = 0; op < kNumOps; ++op) {
      latency_us[op].insert(latency_us[op].end(), o.latency_us[op].begin(),
                            o.latency_us[op].end());
      sent_s[op].insert(sent_s[op].end(), o.sent_s[op].begin(),
                        o.sent_s[op].end());
    }
    stream_lag_us.insert(stream_lag_us.end(), o.stream_lag_us.begin(),
                         o.stream_lag_us.end());
    attempted += o.attempted;
    failed += o.failed;
    reads += o.reads;
    keys_ingested += o.keys_ingested;
    checkpoints += o.checkpoints;
    whole_sketch_requests += o.whole_sketch_requests;
    decodes += o.decodes;
  }
};

uint64_t DecodeCount() {
  return obs::StatsRegistry::Global().Histogram("ifp_decode").Count();
}

// Everything a thread needs to issue ops against the running server.
struct Issuer {
  server::SketchServer* server = nullptr;
  // Replays reads through Handle; never auto-checkpoints.
  server::RequestDispatcher* dispatcher = nullptr;
  Shadow* shadow = nullptr;  // replays inserts, writes probe checkpoints
  Fleet* fleet = nullptr;
  const std::vector<Truth>* truth = nullptr;  // null: answers not checked
  ErrorStats* errors = nullptr;
  bool traced = false;
  LayerSpans* spans = nullptr;
  PhaseStats* stats = nullptr;

  // Issues `r` over the wire; `due` (open loop) is the time the request
  // was scheduled, otherwise the latency starts at the send. Returns false
  // when the op failed.
  bool Issue(Client& client, const Request& r, Clock::time_point due,
             bool open_loop) {
    // A traced insert replays on the tenant as it was before this batch.
    std::string before;
    if (traced && r.op == kInsert) before = Shadow::Image(*Live(r.tenant));
    Answer answer;
    const auto sent = Clock::now();
    const StatusCode status = WireCall(client, r, &answer);
    const auto done = Clock::now();
    if (WholeSketch(r.op)) ++stats->whole_sketch_requests;
    ++stats->attempted;
    const auto from = open_loop ? due : sent;
    stats->latency_us[r.op].push_back(Micros(done - from));
    stats->sent_s[r.op].push_back(
        std::chrono::duration<double>(from - stats->start).count());
    bool ok = status == StatusCode::kOk;
    if (!ok) {
      errors->Fail(std::string(kOpNames[r.op]) + " status " +
                   server::StatusName(status));
    } else if (r.op == kInsert) {
      ++fleet->applied[r.slice];
      stats->keys_ingested += r.keys.size();
    } else if (r.op == kCheckpoint) {
      ++stats->checkpoints;
    } else {
      ++stats->reads;
      if (truth != nullptr) ok = CheckAnswer(r, answer);
    }
    if (!ok) ++stats->failed;
    // Checkpoint requests are not replayed: the probe times that layer.
    if (traced && ok && r.op != kCheckpoint &&
        !TraceReplay(r, before, Micros(done - sent))) {
      errors->Fail(std::string(kOpNames[r.op]) + " replay through Handle");
      ++stats->failed;
      ok = false;
    }
    return ok;
  }

  std::shared_ptr<server::Tenant> Live(size_t tenant) {
    return server->registry().Find(TenantName(tenant));
  }

  // Replays a completed wire request through Handle, then through the
  // engine layer. Reads replay on the served state. An insert replays on
  // the shadow tenant, reset to `before` ahead of each replay. Returns
  // false when Handle did not answer kOk.
  bool TraceReplay(const Request& r, const std::string& before,
                   double wire_us) {
    server::RequestDispatcher* handler = dispatcher;
    server::TenantRegistry* registry = &server->registry();
    const std::string body = RequestBody(r);
    std::string response;
    auto handle = [&] {
      response = handler->Handle(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(body.data()), body.size()));
      return Client::ParseStatus(response) == StatusCode::kOk;
    };
    std::shared_ptr<server::Tenant> live;
    if (r.op == kInsert) {
      live = Live(r.tenant);
      handler = &shadow->dispatcher();
      registry = &shadow->registry();
      // One untimed insert first: a freshly restored shadow pays one-off
      // allocation costs that the live tenant, which takes a batch every
      // few hundred milliseconds, does not.
      if (shadow->Restore(*live, before) == nullptr || !handle() ||
          shadow->Restore(*live, before) == nullptr) {
        return false;
      }
    }
    bool ok = true;
    const double handle_us = TimeUs([&] { ok = handle(); });
    if (!ok) return false;
    if (r.op == kInsert && shadow->Restore(*live, before) == nullptr) {
      return false;
    }
    const double engine_us = TimeUs([&] { EngineReplay(*registry, r); });
    spans->wire_us[r.op].push_back(wire_us);
    spans->handle_us[r.op].push_back(handle_us);
    spans->engine_us[r.op].push_back(engine_us);
    // Request and response frames, each with its u32 length prefix.
    spans->wire_bytes[r.op].push_back(
        static_cast<double>(body.size() + response.size() + 8));
    return true;
  }

  // Runs a SketchProbe on `tenant`, counting a failed probe.
  void Probe(size_t tenant, const std::vector<uint32_t>& batch_keys,
             int64_t threshold) {
    if (!SketchProbe(server->registry(), *shadow, tenant, batch_keys,
                     threshold, spans)) {
      errors->Fail("sketch probe on " + TenantName(tenant));
      ++stats->attempted;
      ++stats->failed;
    }
  }

  bool CheckAnswer(const Request& r, const Answer& a) {
    const Truth& t = (*truth)[r.tenant];
    bool ok = true;
    switch (r.op) {
      case kPoint:
        ok = CheckPoint(a.count, t.Freq(r.key), t.total, errors);
        break;
      case kBatch:
        ok = a.counts.size() == r.keys.size();
        for (size_t i = 0; ok && i < r.keys.size(); ++i) {
          ok = CheckPoint(a.counts[i], t.Freq(r.keys[i]), t.total, errors);
        }
        break;
      case kHh: ok = CheckHeavyHitters(a.pairs, t, errors); break;
      case kCard:
        ok = CheckRel(a.value, static_cast<double>(t.freq.size()),
                      kCardRelTol, &errors->card_max_rel);
        break;
      case kEntropy:
        ok = CheckRel(a.value, t.entropy, kEntropyRelTol,
                      &errors->entropy_max_rel);
        break;
      case kUnion:
        ok = CheckRel(a.value, t.union_with_next, kUnionRelTol,
                      &errors->union_max_rel);
        break;
      default: break;
    }
    if (!ok) {
      errors->Fail(std::string(kOpNames[r.op]) + " answer out of bound on " +
                   TenantName(r.tenant));
    }
    return ok;
  }
};

// Read-request generator shared by the closed-loop reader and the
// verification pass: keys are drawn from the tenant's own slices, so they
// are frequency-weighted.
class ReadGen {
 public:
  ReadGen(const Fleet& fleet, uint64_t seed) : fleet_(fleet), rng_(seed) {}

  uint32_t KeyOf(size_t tenant) {
    const size_t slice =
        tenant + kTenants * std::uniform_int_distribution<size_t>(
                                0, kSlices / kTenants - 1)(rng_);
    const size_t offset =
        std::uniform_int_distribution<size_t>(0, kBatchKeys - 1)(rng_);
    return fleet_.Slice(slice)[offset];
  }

  Request Make(OpKind op, size_t tenant, int64_t threshold) {
    Request r;
    r.op = op;
    r.tenant = tenant;
    r.partner = (tenant + 1) % kTenants;
    r.threshold = threshold;
    if (op == kPoint) r.key = KeyOf(tenant);
    if (op == kBatch) {
      for (size_t i = 0; i < kQueryBatchKeys; ++i) r.keys.push_back(KeyOf(tenant));
    }
    return r;
  }

  // The read mix in a fresh order.
  std::array<OpKind, kReadMix.size()> Cycle() {
    std::array<OpKind, kReadMix.size()> ops = kReadMix;
    std::shuffle(ops.begin(), ops.end(), rng_);
    return ops;
  }

 private:
  const Fleet& fleet_;
  std::mt19937_64 rng_;
};

Request InsertRequest(const Fleet& fleet, size_t slice) {
  Request r;
  r.op = kInsert;
  r.slice = slice;
  r.tenant = Fleet::TenantOf(slice);
  const auto keys = fleet.Slice(slice);
  r.keys.assign(keys.begin(), keys.end());
  return r;
}

// ---------------------------------------------------------------------------
// Server set-up: start, create the fleet, preload.

// Everything of one set-up lives under `dir`: the server's checkpoints in
// live/, the shadows' in shadow-*/.
struct Setup {
  std::unique_ptr<server::SketchServer> server;
  fs::path dir;
  double seconds = 0;
  // Keys per second of each stretch of kPreloadChunk preload batches.
  std::vector<double> chunk_keys_per_s;
};

void Teardown(Setup* setup) {
  if (setup->server) setup->server->Stop();
  setup->server.reset();
  std::error_code ec;
  fs::remove_all(setup->dir, ec);
}

bool RunSetup(const WorkloadSpec& spec, const fs::path& dir, Fleet* fleet,
              bool traced_preload, ErrorStats* errors, LayerSpans* spans,
              PhaseStats* stats, Setup* out) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fleet->applied.assign(kSlices, 0);
  out->dir = dir;
  const auto start = Clock::now();
  server::ServerOptions options;
  options.checkpoint_dir = (dir / "live").string();
  options.checkpoint_every = spec.checkpoint_every;
  out->server = std::make_unique<server::SketchServer>(options);
  if (!out->server->Start()) return false;
  Client admin;
  if (!admin.Connect(out->server->port())) return false;
  for (size_t t = 0; t < kTenants; ++t) {
    if (admin.CreateTenant(TenantName(t), kShards, kTenantBytes,
                           kSketchSeed) != StatusCode::kOk) {
      return false;
    }
  }
  server::RequestDispatcher dispatcher(&out->server->registry());
  Shadow shadow(dir / "shadow-preload");
  Issuer issuer{out->server.get(), &dispatcher, &shadow, fleet, nullptr,
                errors, traced_preload, spans, stats};
  // The preload is pipelined, up to kPreloadWindow batches in flight, so
  // its rate is the server's wire-ingest capacity rather than the wake-up
  // latency of one round trip per batch. A traced batch drains the
  // pipeline and goes alone, so its spans time one request.
  // Batches complete in slice order, so each kPreloadChunk-th completion
  // closes a stretch.
  std::deque<size_t> in_flight;
  auto stretch_start = Clock::now();
  auto completed = [&](size_t s) {
    if ((s + 1) % kPreloadChunk != 0) return;
    const auto now = Clock::now();
    out->chunk_keys_per_s.push_back(
        static_cast<double>(kPreloadChunk * kBatchKeys) /
        std::chrono::duration<double>(now - stretch_start).count());
    stretch_start = now;
  };
  auto reap = [&] {
    const size_t s = in_flight.front();
    in_flight.pop_front();
    std::string response;
    if (!admin.ReadResponse(&response) ||
        Client::ParseStatus(response) != StatusCode::kOk) {
      errors->Fail("preload insert on " + TenantName(Fleet::TenantOf(s)));
      return false;
    }
    ++fleet->applied[s];
    completed(s);
    return true;
  };
  for (size_t s = 0; s < kSlices; ++s) {
    if (traced_preload && s % kTracedInsertStride == 0) {
      while (!in_flight.empty()) {
        if (!reap()) return false;
      }
      if (!issuer.Issue(admin, InsertRequest(*fleet, s), {}, false)) {
        return false;
      }
      completed(s);
      continue;
    }
    if (in_flight.size() == kPreloadWindow && !reap()) return false;
    ++stats->attempted;
    if (!admin.SendRequest(Client::InsertBatchRequest(
            TenantName(Fleet::TenantOf(s)), fleet->Slice(s), {}))) {
      return false;
    }
    in_flight.push_back(s);
  }
  while (!in_flight.empty()) {
    if (!reap()) return false;
  }
  for (size_t t = 0; t < kTenants; ++t) {
    if (admin.FlushViews(TenantName(t)) != StatusCode::kOk) return false;
  }
  out->seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return true;
}

// ---------------------------------------------------------------------------
// The measured phase.

struct PhaseResult {
  PhaseStats stats;
  LayerSpans spans;
};

PhaseResult RunPhase(const WorkloadSpec& spec, Setup& setup, Fleet* fleet,
                     const std::vector<Truth>* truth,
                     const std::vector<int64_t>& thresholds, double seconds,
                     bool traced, uint64_t seed, size_t* next_slice,
                     ErrorStats* errors) {
  server::RequestDispatcher dispatcher(&setup.server->registry());
  PhaseResult reader_result, stream_result;
  const auto start = Clock::now();
  reader_result.stats.start = start;
  stream_result.stats.start = start;
  const uint64_t decodes_at_start = DecodeCount();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  // The open-loop stream: insert batches, or checkpoint requests
  // round-robin over the tenants. jthread: joined on every path out of
  // this function.
  std::jthread stream;
  if (spec.stream_per_s > 0) {
    stream = std::jthread([&] {
      Client client;
      PhaseStats& st = stream_result.stats;
      if (!client.Connect(setup.server->port())) {
        ++st.attempted;
        ++st.failed;
        return;
      }
      Shadow shadow(setup.dir / "shadow-stream");
      Issuer issuer{setup.server.get(), &dispatcher, &shadow, fleet, nullptr,
                    errors, false, &stream_result.spans, &st};
      const double interval_s = 1.0 / spec.stream_per_s;
      auto prev_done = start;
      for (uint64_t i = 0;; ++i) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(interval_s * i));
        if (due >= deadline || Clock::now() >= deadline) break;
        WaitUntil(due);
        st.stream_lag_us.push_back(
            Micros(Clock::now() - std::max(due, prev_done)));
        Request r;
        if (spec.stream_op == kInsert) {
          r = InsertRequest(*fleet, (*next_slice)++ % kSlices);
        } else {
          r.op = spec.stream_op;
          r.tenant = i % kTenants;
        }
        issuer.traced = traced && i % kTracedInsertStride == 0;
        issuer.Issue(client, r, due, true);
        prev_done = Clock::now();
      }
    });
  }

  // Closed-loop reader: one read cycle per tenant in turn.
  {
    Client client;
    PhaseStats& st = reader_result.stats;
    if (client.Connect(setup.server->port())) {
      Shadow shadow(setup.dir / "shadow-reader");
      Issuer issuer{setup.server.get(), &dispatcher, &shadow, fleet, truth,
                    errors, false, &reader_result.spans, &st};
      ReadGen gen(*fleet, seed * 0x9E3779B97F4A7C15ULL + 17);
      for (uint64_t cycle = 0; Clock::now() < deadline; ++cycle) {
        const size_t tenant = cycle % kTenants;
        // Traced: every 4th cycle, plus a whole-sketch probe every 16th.
        issuer.traced = traced && cycle % 4 == 0;
        for (OpKind op : gen.Cycle()) {
          if (Clock::now() >= deadline) break;
          issuer.Issue(client, gen.Make(op, tenant, thresholds[tenant]), {},
                       false);
        }
        if (traced && cycle % 16 == 0) {
          issuer.Probe(tenant, gen.Make(kBatch, tenant, 0).keys,
                       thresholds[tenant]);
        }
      }
    } else {
      ++st.attempted;
      ++st.failed;
    }
  }
  if (stream.joinable()) stream.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  reader_result.stats.Append(stream_result.stats);
  reader_result.spans.Append(stream_result.spans);
  reader_result.stats.seconds = elapsed;
  reader_result.stats.decodes = DecodeCount() - decodes_at_start;
  return reader_result;
}

// Flushes views, then checks every op's answers on every tenant against
// the exact answers.
PhaseResult Verify(Setup& setup, Fleet* fleet, const std::vector<Truth>& truth,
                   bool traced, uint64_t seed, ErrorStats* errors) {
  PhaseResult result;
  Client client;
  if (!client.Connect(setup.server->port())) {
    ++result.stats.attempted;
    ++result.stats.failed;
    return result;
  }
  for (size_t t = 0; t < kTenants; ++t) {
    ++result.stats.attempted;
    if (client.FlushViews(TenantName(t)) != StatusCode::kOk) {
      ++result.stats.failed;
    }
  }
  server::RequestDispatcher dispatcher(&setup.server->registry());
  Shadow shadow(setup.dir / "shadow-verify");
  Issuer issuer{setup.server.get(), &dispatcher, &shadow, fleet, &truth,
                errors, traced, &result.spans, &result.stats};
  ReadGen gen(*fleet, seed * 0xBF58476D1CE4E5B9ULL + 29);
  for (int rep = 0; rep < kVerifyReps; ++rep) {
    for (size_t t = 0; t < kTenants; ++t) {
      const int64_t threshold = truth[t].HhThreshold();
      for (OpKind op : gen.Cycle()) {
        issuer.Issue(client, gen.Make(op, t, threshold), {}, false);
      }
      if (traced && rep == 0) {
        issuer.Probe(t, gen.Make(kBatch, t, 0).keys, threshold);
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// End-to-end values of one measured phase.
std::map<std::string, double> EndToEnd(const PhaseStats& loop,
                                       double preload_keys_per_s,
                                       bool has_writer) {
  std::map<std::string, double> out;
  for (int op = kPoint; op <= kUnion; ++op) {
    const std::vector<double>& samples = loop.latency_us[op];
    out[std::string(kOpNames[op]) + "_p50_us"] = Percentile(samples, 0.50);
    out[std::string(kOpNames[op]) + "_p99_us"] = Percentile(
        KeptSamples(samples, loop.sent_s[op], loop.seconds), 0.99);
  }
  out["reads_per_s"] = static_cast<double>(loop.reads) / loop.seconds;
  out["ingest_keys_per_s"] =
      has_writer ? static_cast<double>(loop.keys_ingested) / loop.seconds
                 : preload_keys_per_s;
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value);
    else if (flag == "--trace") args->trace = std::atoi(value);
    else if (flag == "--work-dir") args->work_dir = value;
    else if (flag == "--git-sha") args->git_sha = value;
    else return false;
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

int Run(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: server_bench --workload analytics|mixed "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  if (args.trace == 1 && !obs::kStatsEnabled) {
    std::fprintf(stderr,
                 "server_bench: the traced run reads DAVINCI_STATS counters "
                 "(eviction/promotion/reject ratios), but this build has "
                 "DAVINCI_STATS off\n");
    return 2;
  }
  const bool traced_run = args.trace == 1;
  const bool has_writer = spec.stream_op == kInsert && spec.stream_per_s > 0;
  const fs::path work_dir =
      fs::path(args.work_dir) / ("run-" + std::to_string(::getpid()));

  Fleet fleet;
  fleet.trace = BuildSkewedTrace("perfbench-" + spec.name, kTraceKeys,
                                 spec.flows, spec.skew, args.seed);
  ErrorStats errors;
  PhaseStats setup_stats;
  LayerSpans spans;
  std::vector<double> setup_seconds;
  // Preload stretch rates: of the untraced set-ups, and of the traced one.
  std::vector<double> preload_rates, preload_rates_traced;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (setup.server) Teardown(&setup);
    // Each set-up starts from a trimmed heap with the VmHWM peak reset, so
    // rss_peak_mib covers the last set-up and the serving phases only, not
    // the trace builder's scratch memory or heap that earlier set-ups left
    // in other threads' malloc arenas.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    const bool last = rep == kSetupReps - 1;
    if (!RunSetup(spec, work_dir / ("setup-" + std::to_string(rep)), &fleet,
                  traced_run && last, &errors, &spans, &setup_stats,
                  &setup)) {
      std::fprintf(stderr, "server_bench: set-up failed\n");
      Teardown(&setup);
      std::error_code ec;
      fs::remove_all(work_dir, ec);
      return 1;
    }
    setup_seconds.push_back(setup.seconds);
    // Traced runs trace the last preload; the earlier ones are its
    // untraced baseline.
    std::vector<double>& rates =
        traced_run && last ? preload_rates_traced : preload_rates;
    rates.insert(rates.end(), setup.chunk_keys_per_s.begin(),
                 setup.chunk_keys_per_s.end());
  }
  // The median stretch over all the set-ups: a burst of host interference
  // during one set-up slows a few stretches, not the figure.
  const double preload_rate_untraced = Median(preload_rates);
  const double preload_rate_traced = Median(preload_rates_traced);

  // Preloaded totals fix each tenant's heavy-hitter threshold for the run.
  std::vector<Truth> truth = BuildTruth(fleet);
  std::vector<int64_t> thresholds;
  for (const Truth& t : truth) thresholds.push_back(t.HhThreshold());
  // Only a quiescent fleet is checked during the run.
  const std::vector<Truth>* live_truth = has_writer ? nullptr : &truth;

  auto auto_checkpoints = [&] {
    uint64_t total = 0;
    for (size_t t = 0; t < kTenants; ++t) {
      total += setup.server->registry().Find(TenantName(t))->epoch();
    }
    return total;
  };
  const uint64_t checkpoints_before = auto_checkpoints();
  const double rss_after_setup_mib = ProcStatusMib("VmHWM:");
  const CpuTicks ticks_before = ReadCpuTicks();

  // Checkpoints (auto or requested) are counted over the untraced phase.
  size_t next_slice = 0;
  PhaseResult loop = RunPhase(spec, setup, &fleet, live_truth, thresholds,
                              traced_run ? args.seconds / 2 : args.seconds,
                              false, args.seed, &next_slice, &errors);
  const uint64_t checkpoints =
      auto_checkpoints() - checkpoints_before + loop.stats.checkpoints;
  const CpuTicks ticks_after = ReadCpuTicks();
  // Share of the host CPU time the hypervisor gave away during the
  // (untraced) measured phase: a high value marks a run on a busy host.
  const double steal_pct =
      100.0 * static_cast<double>(ticks_after.steal - ticks_before.steal) /
      static_cast<double>(
          std::max<uint64_t>(1, ticks_after.total - ticks_before.total));
  PhaseResult loop_traced;
  if (traced_run) {
    loop_traced = RunPhase(spec, setup, &fleet, live_truth, thresholds,
                           args.seconds / 2, true, args.seed + 1, &next_slice,
                           &errors);
  }

  truth = BuildTruth(fleet);
  const double rss_after_loop_mib = ProcStatusMib("VmHWM:");
  PhaseResult verify = Verify(setup, &fleet, truth, false, args.seed, &errors);
  PhaseResult verify_traced;
  if (traced_run) {
    verify_traced = Verify(setup, &fleet, truth, true, args.seed + 1, &errors);
  }

  obs::HealthSnapshot health;
  for (size_t t = 0; t < kTenants; ++t) {
    obs::HealthSnapshot one;
    setup.server->registry().Find(TenantName(t))->CollectStats(&one);
    health.Accumulate(one);
  }
  Teardown(&setup);
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  const double rss_peak_mib = ProcStatusMib("VmHWM:");

  PhaseStats all;
  all.Append(setup_stats);
  all.Append(loop.stats);
  all.Append(loop_traced.stats);
  all.Append(verify.stats);
  all.Append(verify_traced.stats);
  const bool correct = all.failed == 0;

  // Generator lag of the open-loop stream: how late it sent past both the
  // due time and the previous reply.
  const double gen_lag_p99_us = Percentile(loop.stats.stream_lag_us, 0.99);
  const bool generator_behind =
      spec.stream_per_s > 0 && gen_lag_p99_us > 0.5 * 1e6 / spec.stream_per_s;
  if (generator_behind) {
    std::fprintf(stderr,
                 "server_bench: WARNING the load generator, not the server, "
                 "fell behind (gen_lag_p99_us %.1f)\n",
                 gen_lag_p99_us);
  }
  for (int op = kPoint; op <= kUnion; ++op) {
    const size_t kept = KeptSamples(loop.stats.latency_us[op],
                                    loop.stats.sent_s[op], loop.stats.seconds)
                            .size();
    if (!traced_run && kept < 1000) {
      std::fprintf(stderr,
                   "server_bench: WARNING %s keeps %zu samples for its p99, "
                   "so fewer than 10 lie beyond it\n",
                   kOpNames[op], kept);
    }
  }
  for (const std::string& failure : errors.failures) {
    std::fprintf(stderr, "server_bench: FAILED %s\n", failure.c_str());
  }

  const std::map<std::string, double> e2e =
      EndToEnd(loop.stats, preload_rate_untraced, has_writer);

  // ---- report line ----
  {
    std::string r = "{\"report\": {\"workload\": \"" + spec.name +
                    "\", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + Num(args.seconds) +
                    ", \"trace\": " + std::to_string(args.trace);
    uint64_t digest = 1469598103934665603ULL;  // FNV-1a over the trace keys
    for (uint32_t key : fleet.trace.keys) digest = (digest ^ key) * 1099511628211ULL;
    r += ", \"trace_digest\": \"" + std::to_string(digest) + "\"";
    r += ", \"env\": {\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"davinci_stats\": " +
         std::to_string(PERFBENCH_STATS) +
         ", \"davinci_simd\": " + std::to_string(PERFBENCH_SIMD) +
         ", \"compiler\": \"" PERFBENCH_COMPILER "\", \"git_sha\": \"" +
         args.git_sha + "\", \"server_workers\": 3}";
    r += ", \"samples\": {";
    for (int op = 0; op < kNumOps; ++op) {
      const auto& samples = loop.stats.latency_us[op];
      const size_t kept = KeptSamples(samples, loop.stats.sent_s[op],
                                      loop.stats.seconds)
                              .size();
      const size_t rank = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(kept)));
      // n: samples in the phase; n_p99: those the p99 is taken over.
      r += std::string(op ? ", " : "") + "\"" + kOpNames[op] + "\": {\"n\": " +
           std::to_string(samples.size()) + ", \"n_p99\": " +
           std::to_string(kept) + ", \"beyond_p99\": " +
           std::to_string(kept - std::min(kept, rank)) +
           ", \"p90_us\": " + Num(Percentile(samples, 0.9)) +
           ", \"p99_all_windows_us\": " + Num(Percentile(samples, 0.99)) +
           ", \"max_us\": " + Num(Percentile(samples, 1.0)) + "}";
    }
    r += "}, \"stream_gen_lag_p99_us\": " + Num(gen_lag_p99_us) +
         ", \"generator_behind\": " + (generator_behind ? "true" : "false");
    r += ", \"checkpoints\": " + std::to_string(checkpoints) +
         ", \"steal_pct\": " + Num(steal_pct);
    r += ", \"vm_hwm_mib\": {\"setup\": " + Num(rss_after_setup_mib) +
         ", \"loop\": " + Num(rss_after_loop_mib) +
         ", \"end\": " + Num(rss_peak_mib) + "}";
    r += ", \"errors\": {\"point_max_rel\": " + Num(errors.point_max_rel) +
         ", \"point_max_abs_small\": " + Num(errors.point_max_abs_small) +
         ", \"hh_min_recall\": " + Num(errors.hh_min_recall) +
         ", \"hh_min_precision\": " + Num(errors.hh_min_precision) +
         ", \"card_max_rel\": " + Num(errors.card_max_rel) +
         ", \"entropy_max_rel\": " + Num(errors.entropy_max_rel) +
         ", \"union_max_rel\": " + Num(errors.union_max_rel) + "}";
    r += ", \"setup_s_reps\": [";
    for (size_t i = 0; i < setup_seconds.size(); ++i) {
      r += (i ? ", " : "") + Num(setup_seconds[i]);
    }
    r += "]}}";
    std::printf("%s\n", r.c_str());
  }

  std::vector<Metric> metrics;
  if (!traced_run) {
    metrics.push_back({"setup_s", Median(setup_seconds), "s"});
    metrics.push_back({"ingest_keys_per_s", e2e.at("ingest_keys_per_s"), "1/s"});
    for (int op = kPoint; op <= kUnion; ++op) {
      for (const char* q : {"_p50_us", "_p99_us"}) {
        const std::string name = std::string(kOpNames[op]) + q;
        metrics.push_back({name, e2e.at(name), "us"});
      }
    }
    metrics.push_back({"reads_per_s", e2e.at("reads_per_s"), "1/s"});
    metrics.push_back({"rss_peak_mib", rss_peak_mib, "MiB"});
  } else {
    LayerSpans all_spans = spans;
    all_spans.Append(loop_traced.spans);
    all_spans.Append(verify_traced.spans);
    for (int op = kPoint; op <= kInsert; ++op) {
      const std::string name = kOpNames[op];
      std::vector<double> overhead, self;
      for (size_t i = 0; i < all_spans.wire_us[op].size(); ++i) {
        overhead.push_back(all_spans.wire_us[op][i] - all_spans.handle_us[op][i]);
        self.push_back(all_spans.handle_us[op][i] - all_spans.engine_us[op][i]);
      }
      metrics.push_back({"server.overhead_us." + name + ".p50",
                         Percentile(overhead, 0.5), "us"});
      metrics.push_back({"server.overhead_us." + name + ".p99",
                         Percentile(overhead, 0.99), "us"});
      metrics.push_back({"server.wire_bytes_per_op." + name,
                         Mean(all_spans.wire_bytes[op]), "count"});
      metrics.push_back({"dispatcher.handle_us." + name + ".p50",
                         Percentile(all_spans.handle_us[op], 0.5), "us"});
      metrics.push_back({"dispatcher.handle_us." + name + ".p99",
                         Percentile(all_spans.handle_us[op], 0.99), "us"});
      metrics.push_back({"dispatcher.self_us." + name, Median(self), "us"});
    }
    const LayerSpans& s = all_spans;
    metrics.push_back({"tenant.checkpoint_ms.p50", Percentile(s.checkpoint_ms, 0.5), "ms"});
    metrics.push_back({"tenant.checkpoint_ms.p99", Percentile(s.checkpoint_ms, 0.99), "ms"});
    metrics.push_back({"tenant.checkpoint_bytes", Median(s.checkpoint_bytes), "count"});
    metrics.push_back({"tenant.checkpoints", static_cast<double>(checkpoints), "count"});
    metrics.push_back({"concurrent_davinci.insert_batch_us.p50",
                       Percentile(s.engine_us[kInsert], 0.5), "us"});
    metrics.push_back({"concurrent_davinci.insert_batch_us.p99",
                       Percentile(s.engine_us[kInsert], 0.99), "us"});
    metrics.push_back({"concurrent_davinci.snapshot_ms", Median(s.snapshot_ms), "ms"});
    metrics.push_back({"concurrent_davinci.snapshot_all_us", Median(s.snapshot_all_us), "us"});
    metrics.push_back({"concurrent_davinci.cardinality_us", Median(s.cardinality_us), "us"});
    metrics.push_back({"davinci_sketch.decode_first_ms", Median(s.decode_first_ms), "ms"});
    metrics.push_back({"davinci_sketch.decode_repeat_us", Median(s.decode_repeat_us), "us"});
    metrics.push_back({"davinci_sketch.heavy_hitters_us", Median(s.heavy_hitters_us), "us"});
    metrics.push_back({"davinci_sketch.query_batch_us", Median(s.query_batch_us), "us"});
    metrics.push_back({"davinci_sketch.merge_ms", Median(s.merge_ms), "ms"});
    metrics.push_back({"davinci_sketch.save_compressed_ms", Median(s.save_ms), "ms"});
    metrics.push_back({"davinci_sketch.load_ms", Median(s.load_ms), "ms"});
    metrics.push_back({"davinci_sketch.image_bytes", Median(s.image_bytes), "count"});
    metrics.push_back({"estimators.distribution_ms", Median(s.distribution_ms), "ms"});
    metrics.push_back({"estimators.entropy_ms", Median(s.entropy_ms), "ms"});
    // IFP decodes per whole-sketch request, over the untraced phase.
    metrics.push_back({"infrequent_part.decodes_per_query",
                       static_cast<double>(loop.stats.decodes) /
                           static_cast<double>(std::max<uint64_t>(
                               1, loop.stats.whole_sketch_requests)),
                       "count"});
    auto ratio = [](uint64_t num, uint64_t den) {
      return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    };
    metrics.push_back({"infrequent_part.reject_ratio",
                       ratio(health.ifp.decode_rejected_by_filter,
                             health.ifp.decoded_flows),
                       "ratio"});
    metrics.push_back({"frequent_part.eviction_ratio",
                       ratio(health.fp.evictions, health.fp.inserts), "ratio"});
    metrics.push_back({"element_filter.promotion_ratio",
                       ratio(health.ef.promotions, health.ef.inserts), "ratio"});
    // Tracing overhead: traced minus untraced value of each end-to-end
    // metric measured in both halves.
    const std::map<std::string, double> e2e_traced =
        EndToEnd(loop_traced.stats, preload_rate_traced, has_writer);
    for (const auto& [name, value] : e2e) {
      const bool rate = name.find("_per_s") != std::string::npos;
      metrics.push_back({"trace_overhead." + name, e2e_traced.at(name) - value,
                         rate ? "1/s" : "us"});
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", all.attempted, all.failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace davinci::perfbench

int main(int argc, char** argv) {
  // Two malloc arenas for the whole process, set before any thread starts.
  // With glibc's default of one arena per thread, the peak RSS depended on
  // which worker thread happened to run which large request, and
  // rss_peak_mib of the same workload fell into two modes ~35 MiB apart.
  mallopt(M_ARENA_MAX, 2);
  return davinci::perfbench::Run(argc, argv);
}
