#include "server/dispatcher.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "core/davinci_sketch.h"
#include "obs/health.h"

namespace davinci::server {

namespace {

StatusCode ToStatus(RegistryResult result) {
  switch (result) {
    case RegistryResult::kOk: return StatusCode::kOk;
    case RegistryResult::kExists: return StatusCode::kTenantExists;
    case RegistryResult::kNotFound: return StatusCode::kNoSuchTenant;
    case RegistryResult::kInvalid: return StatusCode::kBadArgument;
    case RegistryResult::kFull: return StatusCode::kTooLarge;
    case RegistryResult::kIoError: return StatusCode::kInternal;
  }
  return StatusCode::kInternal;
}

static_assert(static_cast<uint8_t>(SketchFormat::kCompressed) == 1,
              "ops::ExportSketch::Request::Valid bounds the format at 1");

}  // namespace

RequestDispatcher::RequestDispatcher(TenantRegistry* registry,
                                     DispatcherOptions options)
    : registry_(registry), options_(options) {}

void RequestDispatcher::MaybeCheckpoint(Tenant& tenant, uint64_t mutations) {
  if (options_.checkpoint_every == 0 || !registry_->persistent()) return;
  if (tenant.CountMutations(mutations) >= options_.checkpoint_every) {
    // Seal boundary first, so the checkpointed image is epoch-aligned;
    // Checkpoint() resets the mutation clock on success.
    tenant.AdvanceEpoch();
    registry_->Checkpoint(tenant);
  }
}

// ---------------------------------------------------------------------------
// Admin / lifecycle.

template <>
StatusCode RequestDispatcher::Serve<ops::Ping>(ops::Empty&, ops::Empty*) {
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::CreateTenant>(
    ops::CreateTenant::Request& request, ops::Empty*) {
  TenantOptions options{request.shards, request.total_bytes, request.seed,
                        request.window_epochs, request.max_bytes};
  // Quota admission gets its own status so a client can tell "you asked
  // for more than your ceiling" from a structurally invalid request
  // (registry Create would fold both into kBadArgument via Valid()).
  if (options.max_bytes != 0 && options.total_bytes > options.max_bytes) {
    return StatusCode::kQuotaExceeded;
  }
  return ToStatus(registry_->Create(request.name, options));
}

template <>
StatusCode RequestDispatcher::Serve<ops::DropTenant>(ops::Name& request,
                                                     ops::Empty*) {
  return ToStatus(registry_->Drop(request.name));
}

template <>
StatusCode RequestDispatcher::Serve<ops::ListTenants>(
    ops::Empty&, ops::ListTenants::Reply* reply) {
  reply->names = registry_->List();
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::AdvanceEpoch>(
    Tenant& tenant, ops::Name&, ops::AdvanceEpoch::Reply* reply) {
  reply->epoch = tenant.AdvanceEpoch();
  // Epoch seals are the checkpoint boundary: a persistent server durably
  // captures the sealed state right here.
  if (registry_->persistent()) registry_->Checkpoint(tenant);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::Checkpoint>(
    Tenant& tenant, ops::Name&, ops::Checkpoint::Reply* reply) {
  reply->written = registry_->Checkpoint(tenant);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::ResizeTenant>(
    Tenant& tenant, ops::ResizeTenant::Request& request,
    ops::ResizeTenant::Reply* reply) {
  switch (tenant.Resize(request.total_bytes, obs::ResizeHealth::kAdmin)) {
    case Tenant::ResizeOutcome::kBadArgument:
      return StatusCode::kBadArgument;
    case Tenant::ResizeOutcome::kQuotaExceeded:
      return StatusCode::kQuotaExceeded;
    case Tenant::ResizeOutcome::kOk:
      break;
  }
  // A resize is durable state: on a persistent server the new geometry
  // must survive a crash even if no further ingest arrives, so checkpoint
  // at the same seal boundary the periodic trigger uses.
  if (registry_->persistent()) {
    tenant.AdvanceEpoch();
    registry_->Checkpoint(tenant);
  }
  reply->memory_bytes = tenant.engine().MemoryBytes();
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::Health>(Tenant& tenant, ops::Name&,
                                                 HealthReply* reply) {
  obs::HealthSnapshot stats;
  tenant.CollectStats(&stats);
  *reply = HealthReply{stats.shards, stats.memory_bytes, stats.inserts,
                       stats.queries, tenant.epoch(), tenant.windowed(),
                       tenant.merge_height(), stats.resize.applied,
                       stats.resize.rejected, stats.resize.bytes_before,
                       stats.resize.bytes_after, stats.resize.last_trigger};
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::FlushViews>(Tenant& tenant,
                                                     ops::Name&, ops::Empty*) {
  tenant.engine().FlushViews();
  return StatusCode::kOk;
}

// ---------------------------------------------------------------------------
// Merge-tree fan-in.

template <>
StatusCode RequestDispatcher::Serve<ops::ExportSketch>(
    Tenant& tenant, ops::ExportSketch::Request& request,
    ops::ExportSketch::Reply* reply) {
  // Flush first so the exported image carries every completed write, same
  // contract as a checkpoint.
  tenant.engine().FlushViews();
  std::ostringstream image;
  tenant.engine().SaveShards(image, static_cast<SketchFormat>(request.format));
  reply->sketch.image = std::move(image).str();
  // status + height + blob length prefix must still frame; a tenant too big
  // for one flat frame can usually still export compressed.
  if (reply->sketch.image.size() + 16 > kMaxFrameBytes) {
    return StatusCode::kTooLarge;
  }
  reply->sketch.height = tenant.merge_height();
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::ImportMerge>(
    Tenant& tenant, ops::ImportMerge::Request& request,
    ops::ImportMerge::Reply* reply) {
  // All-or-nothing: every image is parsed and geometry-gated BEFORE any of
  // them touches the engine, so a bad image in the middle of the batch
  // cannot leave a half-applied fold.
  std::vector<std::vector<DaVinciSketch>> staged;
  staged.reserve(request.images.size());
  uint64_t total_bytes = 0;
  uint32_t max_source_height = 0;
  for (const ExportedSketch& exported : request.images) {
    std::istringstream in(exported.image);
    std::vector<DaVinciSketch> shards;
    if (!tenant.engine().ParseShardImage(in, &shards) ||
        in.peek() != std::char_traits<char>::eof()) {
      return StatusCode::kBadArgument;
    }
    total_bytes += exported.image.size();
    max_source_height = std::max(max_source_height, exported.height);
    staged.push_back(std::move(shards));
  }
  const uint32_t n = static_cast<uint32_t>(request.images.size());
  tenant.engine().MergeShardImages(std::move(staged));
  tenant.RecordImport(n, total_bytes, max_source_height);
  MaybeCheckpoint(tenant, n);
  reply->height = tenant.merge_height();
  return StatusCode::kOk;
}

// ---------------------------------------------------------------------------
// Ingest.

template <>
StatusCode RequestDispatcher::Serve<ops::Insert>(
    Tenant& tenant, ops::Insert::Request& request, ops::Empty*) {
  tenant.Insert(request.key, request.count);
  MaybeCheckpoint(tenant, 1);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::InsertBatch>(
    Tenant& tenant, ops::InsertBatch::Request& request, ops::Empty*) {
  if (request.counts.empty()) request.counts.assign(request.keys.size(), 1);
  tenant.InsertBatch(request.keys, request.counts);
  MaybeCheckpoint(tenant, request.keys.size());
  return StatusCode::kOk;
}

// ---------------------------------------------------------------------------
// Single-tenant queries — all answered from published views (the engine's
// lock-free read paths or Snapshot()); no writer lock is ever taken here.

template <>
StatusCode RequestDispatcher::Serve<ops::Query>(Tenant& tenant,
                                                ops::Query::Request& request,
                                                ops::Query::Reply* reply) {
  reply->count = tenant.engine().Query(request.key);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::QueryBatch>(
    Tenant& tenant, ops::QueryBatch::Request& request, ops::Counts* reply) {
  reply->counts = tenant.engine().QueryBatch(request.keys);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::HeavyHitters>(
    Tenant& tenant, ops::HeavyHitters::Request& request, ops::Pairs* reply) {
  reply->pairs = tenant.engine().HeavyHitters(request.threshold);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::Cardinality>(Tenant& tenant,
                                                      ops::Name&,
                                                      ops::Value* reply) {
  reply->value = tenant.engine().EstimateCardinality();
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::Distribution>(
    Tenant& tenant, ops::Name&, ops::Distribution::Reply* reply) {
  std::map<int64_t, int64_t> dist = tenant.engine().Snapshot().Distribution();
  reply->dist.assign(dist.begin(), dist.end());
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::Entropy>(Tenant& tenant, ops::Name&,
                                                  ops::Value* reply) {
  reply->value = tenant.engine().Snapshot().EstimateEntropy();
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::WindowHeavyChangers>(
    Tenant& tenant, ops::WindowHeavyChangers::Request& request,
    ops::Pairs* reply) {
  if (!tenant.windowed()) return StatusCode::kBadArgument;
  reply->pairs = tenant.WindowHeavyChangers(request.delta);
  return StatusCode::kOk;
}

// ---------------------------------------------------------------------------
// Cross-tenant queries, over snapshots Run has already geometry-gated.

template <>
StatusCode RequestDispatcher::Serve<ops::HeavyChangers>(
    DaVinciSketch& a, const DaVinciSketch& b,
    ops::HeavyChangers::Request& request, ops::Pairs* reply) {
  reply->pairs = a.HeavyChangers(b, request.delta);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::UnionCardinality>(
    DaVinciSketch& a, const DaVinciSketch& b, ops::NamePair&,
    ops::Value* reply) {
  a.Merge(b);
  reply->value = a.EstimateCardinality();
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::DifferenceQuery>(
    DaVinciSketch& a, const DaVinciSketch& b,
    ops::DifferenceQuery::Request& request, ops::Counts* reply) {
  a.Subtract(b);
  reply->counts = a.QueryBatch(request.keys);
  return StatusCode::kOk;
}

template <>
StatusCode RequestDispatcher::Serve<ops::InnerProduct>(
    DaVinciSketch& a, const DaVinciSketch& b, ops::NamePair&,
    ops::Value* reply) {
  reply->value = DaVinciSketch::InnerProduct(a, b);
  return StatusCode::kOk;
}

// ---------------------------------------------------------------------------
// One request: decode once, resolve the scope, serve, encode once.

template <typename E>
std::string RequestDispatcher::Run(WireReader& reader) {
  typename E::Request request;
  typename E::Reply reply;
  StatusCode status = Decode(reader, &request);
  if (status != StatusCode::kOk) return StatusBody(status);
  if constexpr (E::kScope == ops::Scope::kTenant) {
    std::shared_ptr<Tenant> tenant = registry_->Find(request.name);
    status = tenant ? Serve<E>(*tenant, request, &reply)
                    : StatusCode::kNoSuchTenant;
  } else if constexpr (E::kScope == ops::Scope::kTenantPair) {
    std::shared_ptr<Tenant> a = registry_->Find(request.a);
    std::shared_ptr<Tenant> b = registry_->Find(request.b);
    if (!a || !b) return StatusBody(StatusCode::kNoSuchTenant);
    DaVinciSketch snap_a = a->engine().Snapshot();
    DaVinciSketch snap_b = b->engine().Snapshot();
    // The core's Merge/Subtract/HeavyChangers/InnerProduct DAVINCI_CHECK-
    // abort on mismatched geometry, so a hostile pairing answers
    // kBadArgument here instead of killing the daemon for every other
    // tenant. Two kResizable tenants (same seed, different split) are
    // refused too: the server never rebuilds a whole tenant for one query.
    status = DaVinciConfig::GeometryCompatible(snap_a.config(),
                                               snap_b.config()) ==
                     DaVinciConfig::GeometryRelation::kIdentical
                 ? Serve<E>(snap_a, snap_b, request, &reply)
                 : StatusCode::kBadArgument;
  } else {
    status = Serve<E>(request, &reply);
  }
  if (status != StatusCode::kOk) return StatusBody(status);
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(StatusCode::kOk));
  Encode(writer, reply);
  return writer.Take();
}

std::string RequestDispatcher::Handle(std::span<const uint8_t> body) {
  using Handler = std::string (RequestDispatcher::*)(WireReader&);
  // Opcode byte -> Run<E>, built from the table at compile time; a null
  // slot is an opcode outside the table.
  static constexpr std::array<Handler, 256> kHandlers =
      []<typename... E>(ops::List<E...>) {
        std::array<Handler, 256> handlers{};
        ((handlers[static_cast<uint8_t>(E::kOp)] = &RequestDispatcher::Run<E>),
         ...);
        return handlers;
      }(ops::Table{});

  WireReader reader(body);
  uint8_t version = 0;
  uint8_t opcode = 0;
  if (!reader.U8(&version) || !reader.U8(&opcode)) {
    return StatusBody(StatusCode::kMalformed);
  }
  if (version != kProtocolVersion) {
    return StatusBody(StatusCode::kBadVersion);
  }
  Handler handler = kHandlers[opcode];
  if (handler == nullptr) return StatusBody(StatusCode::kUnknownOp);
  return (this->*handler)(reader);
}

}  // namespace davinci::server
