// Fuzz harness for the sketch server's request parser (docs/SERVER.md).
//
// Contract under test: for ANY byte stream fed into the connection
// pipeline — FrameAssembler chunk reassembly, then RequestDispatcher over
// each completed frame — the server either answers with a well-formed
// status or poisons the connection (fatal framing), but never aborts,
// never trips UB, and never lets the assembler buffer grow past the
// declared frame cap. Hostile payloads may be gibberish; the dispatcher
// must map them to kMalformed/kUnknownOp/kBadArgument cleanly.
//
// The one concession to being a fuzz target: kCreateTenant and
// kResizeTenant are only dispatched when their parsed geometry is tiny (see
// AllowDispatch). The seed corpus holds one well-formed request per
// opcode, generated from the opcode table (server/ops.h).

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "server/dispatcher.h"
#include "server/ops.h"
#include "server/protocol.h"
#include "server/tenant.h"

#include "standalone_main.h"

namespace {

#define FUZZ_EXPECT(cond) \
  do {                    \
    if (!(cond)) __builtin_trap(); \
  } while (0)

using davinci::server::FrameAssembler;
using davinci::server::Op;
using davinci::server::RequestDispatcher;
using davinci::server::StatusCode;
using davinci::server::TenantOptions;
using davinci::server::TenantRegistry;
using davinci::server::WireReader;
namespace ops = davinci::server::ops;

void SeedTenants(TenantRegistry& registry) {
  registry.Create("a", TenantOptions{2, 16 * 1024, 7, 2});
  registry.Create("b", TenantOptions{2, 16 * 1024, 7, 0});
}

// Harness memory bound: a kCreateTenant or kResizeTenant that parses is
// dispatched only when its geometry is small, so a hostile "create 2 GiB
// tenant" reads as the admission rejection it is elsewhere, not a harness
// OOM. Everything else (including bodies that fail the parse, which are
// answered without allocating) goes through untouched.
bool AllowDispatch(const std::vector<uint8_t>& body,
                   const TenantRegistry& registry) {
  if (body.size() < 2) return true;
  WireReader reader(std::span<const uint8_t>(body.data() + 2,
                                             body.size() - 2));
  if (static_cast<Op>(body[1]) == ops::CreateTenant::kOp) {
    ops::CreateTenant::Request request;
    if (Decode(reader, &request) != StatusCode::kOk) return true;
    return request.shards <= 8 && request.total_bytes <= 64 * 1024 &&
           request.window_epochs <= 4 && registry.size() < 8;
  }
  if (static_cast<Op>(body[1]) == ops::ResizeTenant::kOp) {
    ops::ResizeTenant::Request request;
    if (Decode(reader, &request) != StatusCode::kOk) return true;
    return request.total_bytes <= 64 * 1024;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (size_t{1} << 20)) return 0;  // 1 MiB input cap
  TenantRegistry registry("");  // no persistence inside the fuzzer
  SeedTenants(registry);
  RequestDispatcher dispatcher(&registry);

  FrameAssembler assembler;
  // Feed in input-derived chunk sizes so reassembly across arbitrary read
  // boundaries is part of the search space.
  size_t chunk_seed = size > 0 ? data[0] : 1;
  size_t pos = 0;
  while (pos < size) {
    size_t chunk = 1 + (chunk_seed * 31 + pos * 7) % 97;
    if (chunk > size - pos) chunk = size - pos;
    bool fed = assembler.Feed(data + pos, chunk);
    pos += chunk;
    std::vector<uint8_t> body;
    while (assembler.Next(&body)) {
      FUZZ_EXPECT(body.size() >= 1 &&
                  body.size() <= davinci::server::kMaxFrameBytes);
      if (!AllowDispatch(body, registry)) continue;
      std::string response = dispatcher.Handle(body);
      // Every response leads with a valid status byte.
      FUZZ_EXPECT(!response.empty());
      FUZZ_EXPECT(static_cast<uint8_t>(response[0]) <=
                  static_cast<uint8_t>(StatusCode::kQuotaExceeded));
    }
    if (!fed) {
      FUZZ_EXPECT(assembler.fatal());
      break;
    }
  }
  // A hostile prefix can never balloon the buffer past one frame.
  FUZZ_EXPECT(assembler.buffered() <=
              size_t{davinci::server::kMaxFrameBytes} + sizeof(uint32_t));
  return 0;
}

#if !defined(DAVINCI_LIBFUZZER)
namespace davinci::fuzz {

namespace {

// Fills a request's fields with values the seeded tenants accept: the
// first name is `first`, the second tenant "b"; an import carries one image
// of their geometry.
struct SeedFiller {
  const std::string& image;
  const char* first;
  int names = 0;

  void operator()(std::string& name) { name = names++ == 0 ? first : "b"; }
  void operator()(uint8_t& v) { v = 1; }
  void operator()(uint32_t& v) { v = 2; }
  void operator()(uint64_t& v) { v = 16 * 1024; }
  void operator()(int64_t& v) { v = 1; }
  void operator()(std::vector<uint32_t>& keys) { keys = {1, 2, 3, 1}; }
  void operator()(std::vector<int64_t>& counts) { counts = {1, 2, 3, 4}; }
  void operator()(std::vector<server::ExportedSketch>& images) {
    images = {server::ExportedSketch{0, image}};
  }
};

// One well-formed framed request for table entry E.
template <typename E>
std::string OpSeed(const std::string& image) {
  typename E::Request request;
  // A create names a new tenant; every other op targets the seeded ones.
  SeedFiller fill{image, E::kOp == Op::kCreateTenant ? "c" : "a"};
  std::apply([&](auto&... field) { (fill(field), ...); }, request.Fields());
  std::string body;
  std::apply(
      [&](const auto&... field) {
        server::EncodeRequest<E>(&body, field...);
      },
      request.Fields());
  return server::Frame(body);
}

}  // namespace

int WriteSeeds(const std::string& dir) {
  TenantRegistry registry("");
  SeedTenants(registry);
  std::ostringstream image;
  registry.Find("a")->engine().SaveShards(image);
  int written = 0;
  // One seed per opcode, generated from the table, so every handler is
  // reachable from the corpus.
  [&]<typename... E>(ops::List<E...>) {
    ((written += WriteSeedFile(dir + "/protocol_op_" +
                                   std::string(E::kName) + ".bin",
                               OpSeed<E>(image.str())) == 0),
     ...);
  }(ops::Table{});
  // A create with a 16 KiB quota, then a resize past it: the
  // kQuotaExceeded admission path.
  {
    std::string resize;
    server::EncodeRequest<ops::ResizeTenant>(&resize, std::string("c"),
                                             uint64_t{64 * 1024});
    std::string stream =
        OpSeed<ops::CreateTenant>(image.str()) + server::Frame(resize);
    if (WriteSeedFile(dir + "/protocol_quota.bin", stream) == 0) ++written;
  }
  // A truncated frame (prefix declares more than follows).
  {
    std::string framed = OpSeed<ops::Ping>(image.str());
    framed += "\x40\x00\x00\x00partial";  // declares 64 bytes, sends 7
    if (WriteSeedFile(dir + "/protocol_truncated.bin", framed) == 0) {
      ++written;
    }
  }
  // Garbage that is not even a frame boundary.
  {
    std::string junk = "\x05\x00\x00\x00\xff\xfe\xfd\xfc\xfb";
    if (WriteSeedFile(dir + "/protocol_garbage.bin", junk) == 0) ++written;
  }
  return written;
}

}  // namespace davinci::fuzz
#endif  // !DAVINCI_LIBFUZZER
