#ifndef DAVINCI_SERVER_OPS_H_
#define DAVINCI_SERVER_OPS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "server/protocol.h"

// The opcode table (docs/SERVER.md §Opcodes): every wire op's request and
// reply, defined once. Each entry in namespace ops names its Op, the scope
// the dispatcher resolves before its handler runs, and a Request and a
// Reply whose DAVINCI_WIRE_FIELDS list the fields in wire order. The
// generic Encode/Decode below walk those lists over the WireWriter/
// WireReader primitives (so every hostile-length cap applies before any
// allocation), and the Client's typed calls, the RequestDispatcher, the
// fuzz seeds and the docs check are all derived from the table.

// Lists an aggregate's wire fields in order: Fields() ties them up for the
// codec, kFieldNames spells them for the docs check.
#define DAVINCI_WIRE_FIELDS(...)                                \
  static constexpr std::string_view kFieldNames = #__VA_ARGS__; \
  auto Fields() { return std::tie(__VA_ARGS__); }                \
  auto Fields() const { return std::tie(__VA_ARGS__); }

namespace davinci::server {

// One exported tenant image and its merge-tree height: kExportSketch's
// reply, and one entry of kImportMerge's request.
struct ExportedSketch {
  uint32_t height = 0;
  std::string image;
};

// kHealth's reply: a fixed tuple of engine and resize counters.
struct HealthReply {
  uint64_t shards = 0;
  uint64_t memory_bytes = 0;
  uint64_t inserts = 0;
  uint64_t queries = 0;
  uint64_t epoch = 0;
  bool windowed = false;
  // Merge-tree aggregation height (0 = pure raw-ingest leaf).
  uint32_t merge_height = 0;
  // Resize provenance (kResizeTenant / autotune; survives DVCK recovery).
  uint64_t resizes_applied = 0;
  uint64_t resizes_rejected = 0;
  uint64_t resize_bytes_before = 0;
  uint64_t resize_bytes_after = 0;
  uint32_t resize_last_trigger = 0;  // obs::ResizeHealth::Trigger
  DAVINCI_WIRE_FIELDS(shards, memory_bytes, inserts, queries, epoch, windowed,
                      merge_height, resizes_applied, resizes_rejected,
                      resize_bytes_before, resize_bytes_after,
                      resize_last_trigger)
};

// ---------------------------------------------------------------------------
// Field codec: one Put/Get pair per wire type. Put is false when a value
// has no canonical encoding. Get is kMalformed on a short or over-cap
// field, and kBadArgument on a count the op itself bounds.

inline StatusCode Parsed(bool ok) {
  return ok ? StatusCode::kOk : StatusCode::kMalformed;
}

// Scalars: fixed-width little-endian; a bool is one byte, read as != 0.
template <typename T>
  requires std::is_arithmetic_v<T>
bool Put(WireWriter& w, T v) {
  w.Pod(v);
  return true;
}
template <typename T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
StatusCode Get(WireReader& r, T* v) {
  return Parsed(r.Pod(v));
}
inline StatusCode Get(WireReader& r, bool* v) {
  uint8_t byte = 0;
  if (!r.Pod(&byte)) return StatusCode::kMalformed;
  *v = byte != 0;
  return StatusCode::kOk;
}

// Names. The u16 prefix would truncate past 64 KiB and the server rejects
// anything over kMaxNameBytes, so a longer name is refused here.
inline bool Put(WireWriter& w, const std::string& name) {
  if (name.size() > kMaxNameBytes) return false;
  w.Str(name);
  return true;
}
inline StatusCode Get(WireReader& r, std::string* name) {
  return Parsed(r.Str(name));
}

// Key and count vectors: u32 n, then the raw elements in one copy.
inline bool Put(WireWriter& w, std::span<const uint32_t> keys) {
  w.Keys(keys);
  return true;
}
inline bool Put(WireWriter& w, std::span<const int64_t> counts) {
  w.Counts(counts);
  return true;
}
inline StatusCode Get(WireReader& r, std::vector<uint32_t>* keys) {
  return Parsed(r.Keys(keys));
}
inline StatusCode Get(WireReader& r, std::vector<int64_t>* counts) {
  return Parsed(r.Counts(counts));
}

// One exported image: u32 height, then the image as a blob.
inline bool Put(WireWriter& w, const ExportedSketch& sketch) {
  w.U32(sketch.height);
  w.Blob(sketch.image);
  return true;
}
inline StatusCode Get(WireReader& r, ExportedSketch* sketch) {
  return Parsed(r.U32(&sketch->height) && r.Blob(&sketch->image));
}

template <typename A, typename B>
bool Put(WireWriter& w, const std::pair<A, B>& pair) {
  return Put(w, pair.first) && Put(w, pair.second);
}
template <typename A, typename B>
StatusCode Get(WireReader& r, std::pair<A, B>* pair) {
  StatusCode status = Get(r, &pair->first);
  return status == StatusCode::kOk ? Get(r, &pair->second) : status;
}

// Other lists (pairs, distributions, names, images): u32 n, then the
// elements one by one. A decoded list grows as its elements parse, never
// reserved from n, so a hostile n allocates no more than the body carries.
template <typename T>
inline constexpr size_t kMaxListCount = kMaxBatchKeys;
template <>
inline constexpr size_t kMaxListCount<std::string> = kMaxTenants;

template <std::ranges::sized_range List>
  requires(!std::is_arithmetic_v<std::ranges::range_value_t<List>>)
bool Put(WireWriter& w, const List& items) {
  w.U32(static_cast<uint32_t>(std::ranges::size(items)));
  for (const auto& item : items) {
    if (!Put(w, item)) return false;
  }
  return true;
}
template <typename T>
  requires(!std::is_arithmetic_v<T>)
StatusCode Get(WireReader& r, std::vector<T>* items) {
  uint32_t n = 0;
  if (!r.U32(&n) || n > kMaxListCount<T>) return StatusCode::kMalformed;
  items->clear();
  for (uint32_t i = 0; i < n; ++i) {
    T item{};
    if (StatusCode status = Get(r, &item); status != StatusCode::kOk) {
      return status;
    }
    items->push_back(std::move(item));
  }
  return StatusCode::kOk;
}
// kImportMerge's fan-in bound is checked before any entry is parsed: n
// outside [1, kMaxImportImages] is kBadArgument whatever follows it.
inline StatusCode Get(WireReader& r, std::vector<ExportedSketch>* images) {
  uint32_t n = 0;
  if (!r.U32(&n)) return StatusCode::kMalformed;
  if (n == 0 || n > kMaxImportImages) return StatusCode::kBadArgument;
  images->assign(n, ExportedSketch{});
  for (ExportedSketch& image : *images) {
    if (Get(r, &image) != StatusCode::kOk) return StatusCode::kMalformed;
  }
  return StatusCode::kOk;
}

template <typename... F>
bool EncodeFields(WireWriter& w, const F&... fields) {
  return (Put(w, fields) && ...);
}

// Decodes `fields` (a tuple of references) in order and requires the body
// to end exactly there, so every accepted message has one encoding.
template <typename... F>
StatusCode DecodeFields(WireReader& r, std::tuple<F&...> fields) {
  StatusCode status = StatusCode::kOk;
  std::apply(
      [&](auto&... field) {
        static_cast<void>(
            (((status = Get(r, &field)) == StatusCode::kOk) && ...));
      },
      fields);
  if (status == StatusCode::kOk && !r.Done()) status = StatusCode::kMalformed;
  return status;
}

template <typename Msg>
bool Encode(WireWriter& w, const Msg& msg) {
  return std::apply(
      [&](const auto&... field) { return EncodeFields(w, field...); },
      msg.Fields());
}

// Decodes a whole message; a message with a Valid() precondition that
// fails it is kBadArgument (checked before any tenant lookup).
template <typename Msg>
StatusCode Decode(WireReader& r, Msg* msg) {
  StatusCode status = DecodeFields(r, msg->Fields());
  if constexpr (requires { msg->Valid(); }) {
    if (status == StatusCode::kOk && !msg->Valid()) {
      status = StatusCode::kBadArgument;
    }
  }
  return status;
}

// Whether a caller's argument of type A encodes as a field of type F: the
// same type, or a borrowed span of a vector field's elements (so a client
// never copies a batch just to send it).
template <typename A, typename F>
inline constexpr bool kEncodesAs = std::is_same_v<A, F>;
template <typename T>
inline constexpr bool kEncodesAs<std::span<const T>, std::vector<T>> = true;

template <typename Args, typename Fields>
inline constexpr bool kMatchesFields = false;
template <typename... A, typename... F>
  requires(sizeof...(A) == sizeof...(F))
inline constexpr bool kMatchesFields<std::tuple<A...>, std::tuple<F&...>> =
    (kEncodesAs<A, F> && ...);

// ---------------------------------------------------------------------------
// The table.

namespace ops {

// What the dispatcher resolves before running an op's handler: nothing, the
// tenant in Request::name, or snapshots of the tenants in Request::a/b.
enum class Scope : uint8_t { kServer, kTenant, kTenantPair };

#define DAVINCI_OP(op, scope)                    \
  static constexpr Op kOp = Op::op;              \
  static constexpr std::string_view kName = #op; \
  static constexpr Scope kScope = Scope::scope

struct Empty {
  DAVINCI_WIRE_FIELDS()
};
struct Name {
  std::string name;
  DAVINCI_WIRE_FIELDS(name)
};
struct NamePair {
  std::string a;
  std::string b;
  DAVINCI_WIRE_FIELDS(a, b)
};
struct Value {
  double value = 0;
  DAVINCI_WIRE_FIELDS(value)
};
struct Counts {
  std::vector<int64_t> counts;
  DAVINCI_WIRE_FIELDS(counts)
};
struct Pairs {
  std::vector<std::pair<uint32_t, int64_t>> pairs;
  DAVINCI_WIRE_FIELDS(pairs)
};

// ---- admin / lifecycle ----
struct Ping {
  DAVINCI_OP(kPing, kServer);
  using Request = Empty;
  using Reply = Empty;
};
struct CreateTenant {
  DAVINCI_OP(kCreateTenant, kServer);
  struct Request {
    std::string name;
    uint32_t shards = 0;
    uint64_t total_bytes = 0;
    uint64_t seed = 0;
    uint32_t window_epochs = 0;
    uint64_t max_bytes = 0;  // quota; 0 = uncapped
    DAVINCI_WIRE_FIELDS(name, shards, total_bytes, seed, window_epochs,
                        max_bytes)
  };
  using Reply = Empty;
};
struct DropTenant {
  DAVINCI_OP(kDropTenant, kServer);
  using Request = Name;
  using Reply = Empty;
};
struct ListTenants {
  DAVINCI_OP(kListTenants, kServer);
  using Request = Empty;
  struct Reply {
    std::vector<std::string> names;  // at most kMaxTenants
    DAVINCI_WIRE_FIELDS(names)
  };
};
struct AdvanceEpoch {
  DAVINCI_OP(kAdvanceEpoch, kTenant);
  using Request = Name;
  struct Reply {
    uint64_t epoch = 0;
    DAVINCI_WIRE_FIELDS(epoch)
  };
};
struct Checkpoint {
  DAVINCI_OP(kCheckpoint, kTenant);
  using Request = Name;
  struct Reply {
    bool written = false;
    DAVINCI_WIRE_FIELDS(written)
  };
};
struct Health {
  DAVINCI_OP(kHealth, kTenant);
  using Request = Name;
  using Reply = HealthReply;
};
struct FlushViews {
  DAVINCI_OP(kFlushViews, kTenant);
  using Request = Name;
  using Reply = Empty;
};

// ---- ingest ----
struct Insert {
  DAVINCI_OP(kInsert, kTenant);
  struct Request {
    std::string name;
    uint32_t key = 0;
    int64_t count = 0;
    DAVINCI_WIRE_FIELDS(name, key, count)
  };
  using Reply = Empty;
};
struct InsertBatch {
  DAVINCI_OP(kInsertBatch, kTenant);
  struct Request {
    std::string name;
    std::vector<uint32_t> keys;
    std::vector<int64_t> counts;  // empty = 1 per key
    DAVINCI_WIRE_FIELDS(name, keys, counts)
    bool Valid() const {
      return counts.empty() || counts.size() == keys.size();
    }
  };
  using Reply = Empty;
};

// ---- the paper's nine query tasks ----
struct Query {
  DAVINCI_OP(kQuery, kTenant);
  struct Request {
    std::string name;
    uint32_t key = 0;
    DAVINCI_WIRE_FIELDS(name, key)
  };
  struct Reply {
    int64_t count = 0;
    DAVINCI_WIRE_FIELDS(count)
  };
};
struct HeavyHitters {
  DAVINCI_OP(kHeavyHitters, kTenant);
  struct Request {
    std::string name;
    int64_t threshold = 0;
    DAVINCI_WIRE_FIELDS(name, threshold)
  };
  using Reply = Pairs;
};
struct HeavyChangers {
  DAVINCI_OP(kHeavyChangers, kTenantPair);
  struct Request {
    std::string a;
    std::string b;
    int64_t delta = 0;
    DAVINCI_WIRE_FIELDS(a, b, delta)
  };
  using Reply = Pairs;
};
struct Cardinality {
  DAVINCI_OP(kCardinality, kTenant);
  using Request = Name;
  using Reply = Value;
};
struct Distribution {
  DAVINCI_OP(kDistribution, kTenant);
  using Request = Name;
  struct Reply {
    std::vector<std::pair<int64_t, int64_t>> dist;  // (size, flows) ascending
    DAVINCI_WIRE_FIELDS(dist)
  };
};
struct Entropy {
  DAVINCI_OP(kEntropy, kTenant);
  using Request = Name;
  using Reply = Value;
};
struct UnionCardinality {
  DAVINCI_OP(kUnionCardinality, kTenantPair);
  using Request = NamePair;
  using Reply = Value;
};
struct DifferenceQuery {
  DAVINCI_OP(kDifferenceQuery, kTenantPair);
  struct Request {
    std::string a;
    std::string b;
    std::vector<uint32_t> keys;
    DAVINCI_WIRE_FIELDS(a, b, keys)
  };
  using Reply = Counts;
};
struct InnerProduct {
  DAVINCI_OP(kInnerProduct, kTenantPair);
  using Request = NamePair;
  using Reply = Value;
};

// ---- batched / windowed extensions ----
struct QueryBatch {
  DAVINCI_OP(kQueryBatch, kTenant);
  struct Request {
    std::string name;
    std::vector<uint32_t> keys;
    DAVINCI_WIRE_FIELDS(name, keys)
  };
  using Reply = Counts;
};
struct WindowHeavyChangers {
  DAVINCI_OP(kWindowHeavyChangers, kTenant);
  struct Request {
    std::string name;
    int64_t delta = 0;
    DAVINCI_WIRE_FIELDS(name, delta)
  };
  using Reply = Pairs;
};

// ---- merge-tree fan-in ----
struct ExportSketch {
  DAVINCI_OP(kExportSketch, kTenant);
  struct Request {
    std::string name;
    uint8_t format = 0;  // SketchFormat: 0 = flat, 1 = DVSZ compressed
    DAVINCI_WIRE_FIELDS(name, format)
    bool Valid() const { return format <= 1; }
  };
  struct Reply {
    ExportedSketch sketch;
    DAVINCI_WIRE_FIELDS(sketch)
  };
};
struct ImportMerge {
  DAVINCI_OP(kImportMerge, kTenant);
  struct Request {
    std::string name;
    // 1..kMaxImportImages images, folded into the tenant in order.
    std::vector<ExportedSketch> images;
    DAVINCI_WIRE_FIELDS(name, images)
  };
  struct Reply {
    uint32_t height = 0;
    DAVINCI_WIRE_FIELDS(height)
  };
};

// ---- dynamic geometry ----
struct ResizeTenant {
  DAVINCI_OP(kResizeTenant, kTenant);
  struct Request {
    std::string name;
    uint64_t total_bytes = 0;
    DAVINCI_WIRE_FIELDS(name, total_bytes)
  };
  struct Reply {
    uint64_t memory_bytes = 0;  // the engine's post-resize footprint
    DAVINCI_WIRE_FIELDS(memory_bytes)
  };
};

#undef DAVINCI_OP

template <typename... E>
struct List {};

using Table =
    List<Ping, CreateTenant, DropTenant, ListTenants, AdvanceEpoch,
         Checkpoint, Health, FlushViews, Insert, InsertBatch, Query,
         HeavyHitters, HeavyChangers, Cardinality, Distribution, Entropy,
         UnionCardinality, DifferenceQuery, InnerProduct, QueryBatch,
         WindowHeavyChangers, ExportSketch, ImportMerge, ResizeTenant>;

// Every opcode appears once.
static_assert([]<typename... E>(List<E...>) {
  std::array<bool, 256> seen{};
  return ((!seen[static_cast<uint8_t>(E::kOp)] &&
           (seen[static_cast<uint8_t>(E::kOp)] = true)) &&
          ...);
}(Table{}));

}  // namespace ops

// Builds op E's request body from `args`, which must match E::Request's
// fields one for one (checked at compile time). False, with `body`
// untouched, when an argument has no canonical encoding.
template <typename E, typename... Args>
bool EncodeRequest(std::string* body, const Args&... args) {
  static_assert(
      kMatchesFields<std::tuple<Args...>,
                     decltype(std::declval<typename E::Request&>().Fields())>,
      "arguments do not match the op's request fields");
  WireWriter w;
  w.U8(kProtocolVersion);
  w.U8(static_cast<uint8_t>(E::kOp));
  if (!EncodeFields(w, args...)) return false;
  *body = w.Take();
  return true;
}

}  // namespace davinci::server

#endif  // DAVINCI_SERVER_OPS_H_
