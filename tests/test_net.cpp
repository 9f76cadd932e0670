// csg::net — wire codec, golden frame fixtures, corrupt-frame rejection,
// and the NetServer/NetClient loop over the deterministic loopback
// transport (plus a real-TCP smoke test).
//
// Registered under the `parallel` ctest label: the server runs an accept
// thread plus one handler thread per connection on top of the EvalService
// worker pool, so the TSan lane must see the whole stack.
//
// Golden fixtures live in tests/net_fixtures/*.bin and freeze the wire
// layout byte for byte. When the layout changes *intentionally*, bump
// kVersion and regenerate:
//   CSG_NET_FIXTURE_REGEN=1 ./tests/test_net --gtest_filter='*Golden*'
#include "csg/net/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/net/client.hpp"
#include "csg/net/server.hpp"
#include "csg/net/transport.hpp"
#include "csg/serve/grid_registry.hpp"
#include "csg/serve/service.hpp"
#include "csg/testing/property.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg::net {
namespace {

using csg::testing::PropertyConfig;
using csg::testing::PropertyResult;
using csg::testing::run_property;

CompactStorage make_grid(dim_t d, level_t n) {
  CompactStorage s(d, n);
  s.sample(workloads::parabola_product(d).f);
  hierarchize(s);
  return s;
}

/// Registry + running service + loopback server: the in-process serving
/// stack every e2e test talks to.
struct LoopbackStack {
  serve::GridRegistry registry;
  std::optional<serve::EvalService> service;
  LoopbackListener listener;
  std::optional<NetServer> server;

  explicit LoopbackStack(NetServerOptions opts = {},
                         serve::ServiceOptions service_opts = {}) {
    registry.add("g0", make_grid(2, 4));
    registry.add("g1", make_grid(3, 3));
    service.emplace(registry, service_opts);
    server.emplace(listener, registry, *service, opts);
    server->start();
  }

  ~LoopbackStack() {
    server->stop();
    service->stop();
  }

  NetClient client(ProtocolLimits limits = {}) {
    return NetClient(listener.connect(), limits);
  }
};

/// Hand-rolled header for corruption tests: every field is explicit.
std::vector<std::uint8_t> raw_header(const std::array<char, 4>& magic,
                                     std::uint32_t endian_tag,
                                     std::uint32_t real_width,
                                     std::uint16_t version, std::uint8_t type,
                                     std::uint8_t reserved,
                                     std::uint64_t payload_bytes) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes);
  const auto put = [&out](const void* p, std::size_t n) {
    const auto at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, p, n);
  };
  put(magic.data(), magic.size());
  put(&endian_tag, sizeof(endian_tag));
  put(&real_width, sizeof(real_width));
  put(&version, sizeof(version));
  put(&type, sizeof(type));
  put(&reserved, sizeof(reserved));
  put(&payload_bytes, sizeof(payload_bytes));
  return out;
}

std::vector<std::uint8_t> valid_header(MsgType type,
                                       std::uint64_t payload_bytes) {
  return raw_header(kMagic, kEndianTag,
                    static_cast<std::uint32_t>(sizeof(real_t)), kVersion,
                    static_cast<std::uint8_t>(type), 0, payload_bytes);
}

struct RawFrame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Read one frame off a raw stream (loose limits: tests must be able to
/// see anything the server sends). nullopt on end-of-stream.
std::optional<RawFrame> read_frame(ByteStream& stream) {
  std::vector<std::uint8_t> head(kFrameHeaderBytes);
  if (!read_exact(stream, head.data(), head.size())) return std::nullopt;
  ProtocolLimits loose;
  loose.max_frame_bytes = ~std::uint64_t{0};
  RawFrame frame;
  if (decode_header(head, frame.header, loose) != WireError::kNone)
    return std::nullopt;
  frame.payload.resize(static_cast<std::size_t>(frame.header.payload_bytes));
  if (!frame.payload.empty() &&
      !read_exact(stream, frame.payload.data(), frame.payload.size()))
    return std::nullopt;
  return frame;
}

/// Poll for an asynchronous counter change (bounded; ~5 s worst case).
template <typename Pred>
bool eventually(Pred pred) {
  for (int k = 0; k < 500; ++k) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Every counter of every block set to a distinct value 1, 2, 3, ... in
/// visitor order: the service block, the net block, then each shard.
WireStats numbered_stats(std::size_t shards) {
  WireStats s;
  s.service.shards.resize(shards);
  std::uint64_t next = 1;
  const auto number = [&next](const char*, std::uint64_t& v) { v = next++; };
  serve::ServiceStats::fields(number, s.service);
  NetServerStats::fields(number, s.net);
  for (serve::ServiceStats::ShardStats& sh : s.service.shards)
    serve::ServiceStats::ShardStats::fields(number, sh);
  return s;
}

template <typename Block>
void expect_same_block(const Block& want, const Block& got, const char* what) {
  Block::fields(
      [what](const char* name, std::uint64_t w, std::uint64_t g) {
        EXPECT_EQ(g, w) << what << "." << name;
      },
      want, got);
}

void expect_same_stats(const WireStats& want, const WireStats& got) {
  expect_same_block(want.service, got.service, "service");
  expect_same_block(want.net, got.net, "net");
  ASSERT_EQ(got.service.shards.size(), want.service.shards.size());
  for (std::size_t k = 0; k < want.service.shards.size(); ++k)
    expect_same_block(want.service.shards[k], got.service.shards[k], "shard");
}

template <typename Block>
std::vector<std::string> field_names() {
  std::vector<std::string> names;
  Block block{};
  Block::fields(
      [&names](const char* name, std::uint64_t&) { names.push_back(name); },
      block);
  return names;
}

/// Hand-rolled stats payload: a block is a u32 pair count followed by
/// (u32 length, name bytes, u64 value) pairs.
struct StatsPayload {
  std::vector<std::uint8_t> bytes;

  template <typename T>
  void put(T v) {
    const auto at = bytes.size();
    bytes.resize(at + sizeof(T));
    std::memcpy(bytes.data() + at, &v, sizeof(T));
  }

  void block(
      std::initializer_list<std::pair<std::string, std::uint64_t>> pairs) {
    put<std::uint32_t>(static_cast<std::uint32_t>(pairs.size()));
    for (const auto& [name, value] : pairs) {
      put<std::uint32_t>(static_cast<std::uint32_t>(name.size()));
      bytes.insert(bytes.end(), name.begin(), name.end());
      put<std::uint64_t>(value);
    }
  }
};

/// The quiescence identities of the service counters (test_serve drives
/// every outcome; here they must also hold after a trip over the wire).
void expect_reconciled(const serve::ServiceStats& s) {
  EXPECT_EQ(s.submitted, s.completed + s.rejected + s.timed_out +
                             s.cancelled + s.not_found + s.invalid);
  EXPECT_LE(s.shed_at_admission, s.timed_out);
  std::uint64_t submits = 0, rejections = 0;
  for (const serve::ServiceStats::ShardStats& sh : s.shards) {
    submits += sh.submits;
    rejections += sh.rejections;
  }
  EXPECT_EQ(submits,
            s.submitted - s.not_found - s.invalid - s.shed_at_admission);
  EXPECT_EQ(rejections, s.rejected);
}

// --------------------------------------------------------------------------
// Codec round trips
// --------------------------------------------------------------------------

TEST(NetCodec, EvalRequestRoundTrips) {
  EvalRequest in;
  in.id = 42;
  in.grid = "temperature";
  in.deadline_us = -125;  // negative budgets are legal: expired-on-arrival
  in.points = {CoordVector{0.25, 0.5, 0.75}, CoordVector{0.125, 1.0, 0.0}};

  const auto frame = encode_eval_request(in);
  FrameHeader header;
  ASSERT_EQ(decode_header(frame, header, ProtocolLimits{}), WireError::kNone);
  EXPECT_EQ(header.type, MsgType::kEvalRequest);
  EXPECT_EQ(header.version, kVersion);
  EXPECT_EQ(header.payload_bytes, frame.size() - kFrameHeaderBytes);

  EvalRequest out;
  ASSERT_EQ(decode_eval_request(
                std::span(frame).subspan(kFrameHeaderBytes), out,
                ProtocolLimits{}),
            WireError::kNone);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.grid, in.grid);
  EXPECT_EQ(out.deadline_us, in.deadline_us);
  ASSERT_EQ(out.points.size(), in.points.size());
  for (std::size_t p = 0; p < in.points.size(); ++p) {
    ASSERT_EQ(out.points[p].size(), in.points[p].size());
    for (dim_t t = 0; t < in.points[p].size(); ++t)
      EXPECT_EQ(out.points[p][t], in.points[p][t]);
  }
}

TEST(NetCodec, EvalResponseRoundTrips) {
  EvalResponse in;
  in.id = 7;
  in.results = {{static_cast<std::uint8_t>(serve::Status::kOk), 1.5},
                {static_cast<std::uint8_t>(serve::Status::kTimeout), 0.0}};
  const auto frame = encode_eval_response(in);
  EvalResponse out;
  ASSERT_EQ(decode_eval_response(
                std::span(frame).subspan(kFrameHeaderBytes), out,
                ProtocolLimits{}),
            WireError::kNone);
  EXPECT_EQ(out.id, 7u);
  ASSERT_EQ(out.results.size(), 2u);
  EXPECT_EQ(out.results[0].status,
            static_cast<std::uint8_t>(serve::Status::kOk));
  EXPECT_EQ(out.results[0].value, 1.5);
  EXPECT_EQ(out.results[1].status,
            static_cast<std::uint8_t>(serve::Status::kTimeout));
}

TEST(NetCodec, ListStatsAndErrorRoundTrip) {
  // The two bodyless requests are bare headers.
  EXPECT_EQ(encode_list_request().size(), kFrameHeaderBytes);
  EXPECT_EQ(encode_stats_request().size(), kFrameHeaderBytes);

  ListResponse list_in;
  list_in.grids = {{"pressure", 2, 5, 129, 4128},
                   {"temperature", 3, 4, 177, 8456}};
  const auto list_frame = encode_list_response(list_in);
  ListResponse list_out;
  ASSERT_EQ(decode_list_response(
                std::span(list_frame).subspan(kFrameHeaderBytes), list_out,
                ProtocolLimits{}),
            WireError::kNone);
  ASSERT_EQ(list_out.grids.size(), 2u);
  EXPECT_EQ(list_out.grids[0].name, "pressure");
  EXPECT_EQ(list_out.grids[1].memory_bytes, 8456u);

  // Every counter of every block, walked by the visitors.
  const WireStats stats_in = numbered_stats(3);
  const auto stats_frame = encode_stats_response(stats_in);
  WireStats stats_out;
  ASSERT_EQ(decode_stats_response(
                std::span(stats_frame).subspan(kFrameHeaderBytes), stats_out,
                ProtocolLimits{}),
            WireError::kNone);
  expect_same_stats(stats_in, stats_out);
  // 11 service + 15 net + 3 per-shard counters, all on the wire.
  EXPECT_EQ(field_names<serve::ServiceStats>().size(), 11u);
  EXPECT_EQ(field_names<NetServerStats>().size(), 15u);
  EXPECT_EQ(field_names<serve::ServiceStats::ShardStats>().size(), 3u);
  EXPECT_EQ(stats_out.service.shards.back().max_queue_depth, 11u + 15u + 9u);

  ErrorFrame err_in;
  err_in.id = 9;
  err_in.code = static_cast<std::uint32_t>(WireError::kOversizedBatch);
  err_in.message = "batch exceeds point limit";
  const auto err_frame = encode_error(err_in);
  ErrorFrame err_out;
  ASSERT_EQ(decode_error(std::span(err_frame).subspan(kFrameHeaderBytes),
                         err_out, ProtocolLimits{}),
            WireError::kNone);
  EXPECT_EQ(err_out.id, 9u);
  EXPECT_EQ(err_out.code,
            static_cast<std::uint32_t>(WireError::kOversizedBatch));
  EXPECT_EQ(err_out.message, "batch exceeds point limit");
}

TEST(NetCodec, StatsBlocksHaveUniqueFieldNames) {
  for (const std::vector<std::string>& names :
       {field_names<serve::ServiceStats>(), field_names<NetServerStats>(),
        field_names<serve::ServiceStats::ShardStats>()}) {
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
  }
}

TEST(NetCodec, StatsDecoderSkipsUnknownNamesAndZeroesMissingOnes) {
  StatsPayload p;
  p.block({{"completed", 5},
           {"counter_of_a_newer_peer", 99},
           {"submitted", 7}});
  p.block({});  // net block: every counter missing
  p.put<std::uint32_t>(1);
  p.block({{"gauge_of_a_newer_peer", 3}, {"rejections", 2}});
  WireStats out = numbered_stats(4);  // stale values must not survive
  ASSERT_EQ(decode_stats_response(p.bytes, out, ProtocolLimits{}),
            WireError::kNone);
  WireStats want;
  want.service.completed = 5;
  want.service.submitted = 7;
  want.service.shards.resize(1);
  want.service.shards[0].rejections = 2;
  expect_same_stats(want, out);
}

TEST(NetCodec, StatsDecoderRejectsTruncatedOverlongAndOvercountedBlocks) {
  const ProtocolLimits limits;
  const auto decode = [&limits](std::span<const std::uint8_t> payload) {
    WireStats out;
    return decode_stats_response(payload, out, limits);
  };

  // Every proper prefix of a valid frame ends inside a count or a pair.
  const auto frame = encode_stats_response(numbered_stats(2));
  const auto payload = std::span(frame).subspan(kFrameHeaderBytes);
  for (std::size_t len = 0; len < payload.size(); ++len)
    EXPECT_EQ(decode(payload.first(len)), WireError::kBadPayload) << len;

  // A name at the limit is merely unknown; one byte more is malformed.
  const auto with_name = [&decode](std::uint64_t len) {
    StatsPayload p;
    p.block({{std::string(static_cast<std::size_t>(len), 'x'), 1}});
    p.block({});
    p.put<std::uint32_t>(0);
    return decode(p.bytes);
  };
  EXPECT_EQ(with_name(limits.max_name_bytes), WireError::kNone);
  EXPECT_EQ(with_name(limits.max_name_bytes + 1), WireError::kBadPayload);

  // Pair and shard counts the remaining bytes cannot hold fail up front:
  // no spin over a garbage count, no allocation for one.
  for (const std::uint32_t count : {1u, 1000u, ~0u}) {
    StatsPayload pairs;
    pairs.put<std::uint32_t>(count);
    pairs.block({});
    pairs.put<std::uint32_t>(0);
    EXPECT_EQ(decode(pairs.bytes), WireError::kBadPayload) << count;

    StatsPayload shards;
    shards.block({});
    shards.block({});
    shards.put<std::uint32_t>(count);  // one shard block more than sent
    for (std::uint32_t k = 1; k < std::min(count, 8u); ++k) shards.block({});
    EXPECT_EQ(decode(shards.bytes), WireError::kBadPayload) << count;
  }
}

// --------------------------------------------------------------------------
// Golden fixtures: the committed frame bytes
// --------------------------------------------------------------------------

struct GoldenFixture {
  const char* name;
  std::vector<std::uint8_t> bytes;
};

std::vector<GoldenFixture> golden_fixtures() {
  EvalRequest req;
  req.id = 7;
  req.grid = "temperature";
  req.deadline_us = 2500;
  req.points = {CoordVector{0.25, 0.5, 0.75}, CoordVector{0.125, 1.0, 0.0}};

  EvalResponse resp;
  resp.id = 7;
  resp.results = {{static_cast<std::uint8_t>(serve::Status::kOk), 1.5},
                  {static_cast<std::uint8_t>(serve::Status::kTimeout), 0.0}};

  ListResponse list;
  list.grids = {{"pressure", 2, 5, 129, 4128},
                {"temperature", 3, 4, 177, 8456}};

  const WireStats stats = numbered_stats(2);

  ErrorFrame err;
  err.id = 9;
  err.code = static_cast<std::uint32_t>(WireError::kOversizedBatch);
  err.message = "batch exceeds point limit";

  return {{"eval_request", encode_eval_request(req)},
          {"eval_response", encode_eval_response(resp)},
          {"list_request", encode_list_request()},
          {"list_response", encode_list_response(list)},
          {"stats_request", encode_stats_request()},
          {"stats_response", encode_stats_response(stats)},
          {"error", encode_error(err)}};
}

TEST(NetGolden, CommittedFixtureFramesAreByteExact) {
  const std::string dir = CSG_NET_FIXTURE_DIR;
  const bool regen = std::getenv("CSG_NET_FIXTURE_REGEN") != nullptr;
  for (const GoldenFixture& fixture : golden_fixtures()) {
    const std::string path = dir + "/" + fixture.name + ".bin";
    if (regen) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good()) << path;
      out.write(reinterpret_cast<const char*>(fixture.bytes.data()),
                static_cast<std::streamsize>(fixture.bytes.size()));
      ASSERT_TRUE(out.good()) << path;
      continue;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing fixture " << path
                           << " (CSG_NET_FIXTURE_REGEN=1 regenerates)";
    std::vector<std::uint8_t> disk(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(disk, fixture.bytes)
        << fixture.name << ": committed frame and encoder disagree — either "
        << "an accidental wire break, or bump kVersion and regenerate";
  }
  if (regen) GTEST_SKIP() << "fixtures regenerated, nothing verified";
}

TEST(NetGolden, FixtureFramesDecodeBackToTheirMessages) {
  // The frozen bytes are not just stable, they still decode: a fixture
  // mismatch therefore always means an encoder change, not fixture rot.
  for (const GoldenFixture& fixture : golden_fixtures()) {
    FrameHeader header;
    ASSERT_EQ(decode_header(fixture.bytes, header, ProtocolLimits{}),
              WireError::kNone)
        << fixture.name;
    const auto payload = std::span(fixture.bytes).subspan(kFrameHeaderBytes);
    ASSERT_EQ(payload.size(), header.payload_bytes) << fixture.name;
    switch (header.type) {
      case MsgType::kEvalRequest: {
        EvalRequest m;
        EXPECT_EQ(decode_eval_request(payload, m, ProtocolLimits{}),
                  WireError::kNone);
        EXPECT_EQ(m.grid, "temperature");
        break;
      }
      case MsgType::kEvalResponse: {
        EvalResponse m;
        EXPECT_EQ(decode_eval_response(payload, m, ProtocolLimits{}),
                  WireError::kNone);
        EXPECT_EQ(m.results.size(), 2u);
        break;
      }
      case MsgType::kListResponse: {
        ListResponse m;
        EXPECT_EQ(decode_list_response(payload, m, ProtocolLimits{}),
                  WireError::kNone);
        EXPECT_EQ(m.grids.size(), 2u);
        break;
      }
      case MsgType::kStatsResponse: {
        WireStats m;
        EXPECT_EQ(decode_stats_response(payload, m, ProtocolLimits{}),
                  WireError::kNone);
        expect_same_stats(numbered_stats(2), m);
        break;
      }
      case MsgType::kError: {
        ErrorFrame m;
        EXPECT_EQ(decode_error(payload, m, ProtocolLimits{}),
                  WireError::kNone);
        EXPECT_EQ(m.code,
                  static_cast<std::uint32_t>(WireError::kOversizedBatch));
        break;
      }
      default:
        EXPECT_EQ(header.payload_bytes, 0u) << fixture.name;
    }
  }
}

// --------------------------------------------------------------------------
// Header and payload rejection, one corruption at a time
// --------------------------------------------------------------------------

TEST(NetReject, HeaderNamesTheFirstCorruptedField) {
  const ProtocolLimits limits;
  FrameHeader h;
  const auto ok = valid_header(MsgType::kListRequest, 0);
  ASSERT_EQ(decode_header(ok, h, limits), WireError::kNone);

  EXPECT_EQ(decode_header(std::span(ok).first(kFrameHeaderBytes - 1), h,
                          limits),
            WireError::kTruncated);
  EXPECT_EQ(decode_header(raw_header({'C', 'S', 'G', 'V'}, kEndianTag,
                                     sizeof(real_t), kVersion, 3, 0, 0),
            h, limits),
            WireError::kBadMagic);
  EXPECT_EQ(decode_header(raw_header(kMagic, 0x04030201u, sizeof(real_t),
                                     kVersion, 3, 0, 0),
            h, limits),
            WireError::kBadEndianness);
  EXPECT_EQ(decode_header(raw_header(kMagic, kEndianTag, 4, kVersion, 3, 0, 0),
                          h, limits),
            WireError::kBadRealWidth);
  // The previous layout and a future one are both unspoken versions.
  for (const std::uint16_t version : {std::uint16_t{kVersion - 1},
                                      std::uint16_t{kVersion + 1}})
    EXPECT_EQ(decode_header(raw_header(kMagic, kEndianTag, sizeof(real_t),
                                       version, 3, 0, 0),
                            h, limits),
              WireError::kBadVersion)
        << version;
  EXPECT_EQ(decode_header(raw_header(kMagic, kEndianTag, sizeof(real_t),
                                     kVersion, 3, 0xAB, 0),
            h, limits),
            WireError::kBadReserved);
  EXPECT_EQ(decode_header(raw_header(kMagic, kEndianTag, sizeof(real_t),
                                     kVersion, 3, 0,
                                     limits.max_frame_bytes + 1),
            h, limits),
            WireError::kOversizedFrame);
  EXPECT_EQ(decode_header(raw_header(kMagic, kEndianTag, sizeof(real_t),
                                     kVersion, 99, 0, 0),
            h, limits),
            WireError::kBadType);
  EXPECT_EQ(decode_header(raw_header(kMagic, kEndianTag, sizeof(real_t),
                                     kVersion, 0, 0, 0),
            h, limits),
            WireError::kBadType);
}

TEST(NetReject, EvalRequestPayloadValidation) {
  const ProtocolLimits limits;
  EvalRequest base;
  base.id = 1;
  base.grid = "g";
  base.points = {CoordVector{0.5, 0.5}};
  const auto frame = encode_eval_request(base);
  const auto payload = std::span(frame).subspan(kFrameHeaderBytes);
  EvalRequest out;

  // Well-formed baseline.
  ASSERT_EQ(decode_eval_request(payload, out, limits), WireError::kNone);

  // One byte short / one trailing byte: exact consumption is enforced.
  EXPECT_EQ(decode_eval_request(payload.first(payload.size() - 1), out,
                                limits),
            WireError::kBadPayload);
  std::vector<std::uint8_t> longer(payload.begin(), payload.end());
  longer.push_back(0);
  EXPECT_EQ(decode_eval_request(longer, out, limits), WireError::kBadPayload);

  // Structural bounds: dimension 0, dimension > kMaxDim, zero points. A
  // CoordVector cannot even hold these shapes (its own contract), so the
  // corrupt values are patched into the wire bytes directly. Field offsets
  // in the payload: id(8) deadline(8) name_len(4) name dim(4) count(4).
  const auto mutate = [&](std::uint32_t dim, std::uint32_t count) {
    auto f = frame;
    const std::size_t dim_at =
        kFrameHeaderBytes + 8 + 8 + 4 + base.grid.size();
    std::memcpy(f.data() + dim_at, &dim, sizeof(dim));
    std::memcpy(f.data() + dim_at + sizeof(dim), &count, sizeof(count));
    EvalRequest o;
    return decode_eval_request(std::span(f).subspan(kFrameHeaderBytes), o,
                               limits);
  };
  EXPECT_EQ(mutate(0, 1), WireError::kBadPayload);  // dimension 0
  EXPECT_EQ(mutate(kMaxDim + 1, 1), WireError::kBadPayload);
  EXPECT_EQ(mutate(2, 0), WireError::kBadPayload);  // zero points

  // The batch bound is its own error so the server can answer precisely.
  ProtocolLimits tight = limits;
  tight.max_batch_points = 1;
  EvalRequest two = base;
  two.points.assign(2, CoordVector{0.5, 0.5});
  const auto two_frame = encode_eval_request(two);
  EXPECT_EQ(decode_eval_request(
                std::span(two_frame).subspan(kFrameHeaderBytes), out, tight),
            WireError::kOversizedBatch);

  // A name longer than the receiver allows is structural.
  ProtocolLimits short_names = limits;
  short_names.max_name_bytes = 0;
  EXPECT_EQ(decode_eval_request(payload, out, short_names),
            WireError::kBadPayload);
}

TEST(NetReject, PropertyRandomBytesNeverCrashTheDecoders) {
  // Pure fuzz: every decoder must map arbitrary bytes to a WireError (or a
  // valid message), never crash or over-read. Sanitizer lanes give this
  // property its teeth.
  const PropertyResult r = run_property(
      {.name = "net_decoder_fuzz", .iterations = 64},
      [](std::mt19937_64& rng) -> std::string {
        std::uniform_int_distribution<std::size_t> len_dist(0, 256);
        std::vector<std::uint8_t> bytes(len_dist(rng));
        for (std::uint8_t& b : bytes)
          b = static_cast<std::uint8_t>(rng() & 0xFF);

        const ProtocolLimits limits;
        FrameHeader h;
        (void)decode_header(bytes, h, limits);
        EvalRequest req;
        (void)decode_eval_request(bytes, req, limits);
        EvalResponse resp;
        (void)decode_eval_response(bytes, resp, limits);
        ListResponse list;
        (void)decode_list_response(bytes, list, limits);
        WireStats stats;
        (void)decode_stats_response(bytes, stats, limits);
        ErrorFrame err;
        (void)decode_error(bytes, err, limits);
        return "";
      });
  EXPECT_TRUE(r.passed) << r.detail;
}

// --------------------------------------------------------------------------
// Loopback transport
// --------------------------------------------------------------------------

TEST(NetTransport, LoopbackPairMovesBytesAndSignalsEof) {
  auto [a, b] = loopback_pair();
  const char msg[] = "hello";
  ASSERT_TRUE(a->write_all(msg, sizeof(msg)));
  char buf[sizeof(msg)] = {};
  ASSERT_TRUE(read_exact(*b, buf, sizeof(msg)));
  EXPECT_STREQ(buf, "hello");

  a->shutdown();
  EXPECT_EQ(b->read_some(buf, sizeof(buf)), 0u);   // EOF
  EXPECT_FALSE(b->write_all(msg, sizeof(msg)));    // peer is gone
  a->shutdown();                                   // idempotent
}

TEST(NetTransport, LoopbackBoundedBufferAppliesBackpressure) {
  auto [writer, reader] = loopback_pair(/*capacity=*/8);
  std::atomic<bool> write_done{false};
  std::thread producer([&, w = writer.get()] {
    const std::uint8_t chunk[32] = {};
    ASSERT_TRUE(w->write_all(chunk, sizeof(chunk)));  // 4x the capacity
    write_done.store(true);
  });
  // The writer cannot finish until the reader drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(write_done.load());
  std::uint8_t sink[32];
  ASSERT_TRUE(read_exact(*reader, sink, sizeof(sink)));
  producer.join();
  EXPECT_TRUE(write_done.load());
}

// --------------------------------------------------------------------------
// End-to-end over loopback
// --------------------------------------------------------------------------

TEST(NetE2E, EvalResultsBitIdenticalToDirectEvaluate) {
  LoopbackStack stack;
  const auto e0 = stack.registry.find("g0");
  const auto e1 = stack.registry.find("g1");
  NetClient client = stack.client();

  const auto p0 = workloads::uniform_points(2, 64, 19);
  const auto p1 = workloads::uniform_points(3, 64, 20);
  const EvalResponse r0 = client.evaluate_batch("g0", p0);
  const EvalResponse r1 = client.evaluate_batch("g1", p1);
  ASSERT_EQ(r0.results.size(), p0.size());
  ASSERT_EQ(r1.results.size(), p1.size());
  for (std::size_t k = 0; k < p0.size(); ++k) {
    ASSERT_EQ(r0.results[k].status,
              static_cast<std::uint8_t>(serve::Status::kOk));
    EXPECT_EQ(r0.results[k].value, evaluate(e0->storage, p0[k])) << k;
  }
  for (std::size_t k = 0; k < p1.size(); ++k) {
    ASSERT_EQ(r1.results[k].status,
              static_cast<std::uint8_t>(serve::Status::kOk));
    EXPECT_EQ(r1.results[k].value, evaluate(e1->storage, p1[k])) << k;
  }

  const NetServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.eval_requests, 2u);
  EXPECT_EQ(stats.eval_points, 128u);
  EXPECT_EQ(stats.frames_decoded, 2u);
  EXPECT_EQ(stats.frames_rejected, 0u);
}

TEST(NetE2E, ListAndStatsTravelOverTheWire) {
  LoopbackStack stack;
  NetClient client = stack.client();
  (void)client.evaluate_batch("g0", workloads::uniform_points(2, 5, 3));

  const ListResponse list = client.list_grids();
  ASSERT_EQ(list.grids.size(), 2u);
  EXPECT_EQ(list.grids[0].name, "g0");  // registry names() sorts
  EXPECT_EQ(list.grids[0].dim, 2u);
  EXPECT_EQ(list.grids[0].level, 4u);
  const auto entry = stack.registry.find("g0");
  EXPECT_EQ(list.grids[0].points, entry->storage.size());
  EXPECT_EQ(list.grids[0].memory_bytes, entry->memory_bytes());
  EXPECT_EQ(list.grids[1].name, "g1");

  const WireStats stats = client.fetch_stats();
  EXPECT_EQ(stats.net.eval_requests, 1u);
  EXPECT_EQ(stats.net.eval_points, 5u);
  EXPECT_EQ(stats.service.completed, 5u);
  EXPECT_EQ(stats.net.connections_accepted, 1u);
  // The stats request itself was decoded before the snapshot was taken.
  EXPECT_GE(stats.net.frames_decoded, 2u);
}

TEST(NetE2E, SemanticFailuresTravelAsPerPointStatuses) {
  LoopbackStack stack;
  NetClient client = stack.client();

  // Unknown grid: transport-level success, per-point kNotFound.
  const EvalResponse unknown =
      client.evaluate_batch("nope", workloads::uniform_points(2, 3, 5));
  for (const PointResult& r : unknown.results)
    EXPECT_EQ(r.status, static_cast<std::uint8_t>(serve::Status::kNotFound));

  // Out-of-cube coordinate: kInvalid, same connection still healthy.
  const EvalResponse invalid =
      client.evaluate_batch("g0", {CoordVector{0.5, 1.5}});
  ASSERT_EQ(invalid.results.size(), 1u);
  EXPECT_EQ(invalid.results[0].status,
            static_cast<std::uint8_t>(serve::Status::kInvalid));

  const EvalResponse ok = client.evaluate_batch("g0", {CoordVector{0.5, 0.5}});
  EXPECT_EQ(ok.results[0].status,
            static_cast<std::uint8_t>(serve::Status::kOk));
}

TEST(NetE2E, ExpiredDeadlineBudgetIsShedAtAdmission) {
  LoopbackStack stack;
  NetClient client = stack.client();

  const auto pts = workloads::uniform_points(2, 16, 7);
  // Negative budget: expired the moment the server decodes the frame — the
  // deterministic end-to-end route into admission shedding.
  const EvalResponse resp = client.evaluate_batch("g0", pts, -1);
  ASSERT_EQ(resp.results.size(), pts.size());
  for (const PointResult& r : resp.results)
    EXPECT_EQ(r.status, static_cast<std::uint8_t>(serve::Status::kTimeout));

  const serve::ServiceStats sv = stack.service->stats();
  EXPECT_EQ(sv.shed_at_admission, pts.size());
  EXPECT_EQ(sv.timed_out, pts.size());
  EXPECT_EQ(sv.completed, 0u);
  EXPECT_EQ(sv.batches_formed, 0u);  // dead work never reached a batch

  // A healthy budget on the same connection evaluates normally.
  const EvalResponse ok = client.evaluate_batch("g0", pts, 30'000'000);
  for (const PointResult& r : ok.results)
    EXPECT_EQ(r.status, static_cast<std::uint8_t>(serve::Status::kOk));
}

TEST(NetE2E, OversizedBatchIsRejectedButTheConnectionSurvives) {
  NetServerOptions opts;
  opts.limits.max_batch_points = 4;
  LoopbackStack stack(opts);
  // The client must be allowed to *send* the oversized batch: loosen only
  // its own limits.
  ProtocolLimits loose;
  loose.max_batch_points = 1 << 16;
  NetClient client = stack.client(loose);

  try {
    (void)client.evaluate_batch("g0", workloads::uniform_points(2, 5, 11));
    FAIL() << "oversized batch was not rejected";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), WireError::kOversizedBatch);
  }

  // Framing stayed intact: the same connection keeps serving.
  const EvalResponse ok =
      client.evaluate_batch("g0", workloads::uniform_points(2, 4, 12));
  EXPECT_EQ(ok.results.size(), 4u);
  const NetServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.frames_rejected, 1u);
  EXPECT_EQ(stats.error_frames_sent, 1u);
  EXPECT_EQ(stats.eval_requests, 1u);
}

TEST(NetE2E, OversizedFrameClosesTheConnection) {
  LoopbackStack stack;
  auto raw = stack.listener.connect();
  ASSERT_NE(raw, nullptr);

  const auto head = valid_header(MsgType::kEvalRequest,
                                 NetServerOptions{}.limits.max_frame_bytes + 1);
  ASSERT_TRUE(raw->write_all(head.data(), head.size()));

  // Best-effort error frame, then end-of-stream: the length field cannot be
  // trusted, so the server will not resynchronize.
  const auto err = read_frame(*raw);
  ASSERT_TRUE(err.has_value());
  ASSERT_EQ(err->header.type, MsgType::kError);
  ErrorFrame decoded;
  ASSERT_EQ(decode_error(err->payload, decoded, ProtocolLimits{}),
            WireError::kNone);
  EXPECT_EQ(decoded.code,
            static_cast<std::uint32_t>(WireError::kOversizedFrame));
  EXPECT_FALSE(read_frame(*raw).has_value());
  EXPECT_TRUE(eventually(
      [&] { return stack.server->stats().frames_rejected == 1; }));
}

TEST(NetE2E, UnknownTypeByteIsRejectedWithoutClosing) {
  LoopbackStack stack;
  auto raw = stack.listener.connect();
  ASSERT_NE(raw, nullptr);

  // Unknown type 99 with a small, honest payload length: the framing is
  // intact, so the server discards the payload and answers.
  const std::vector<std::uint8_t> junk(10, 0xEE);
  const auto head = raw_header(kMagic, kEndianTag, sizeof(real_t), kVersion,
                               99, 0, junk.size());
  ASSERT_TRUE(raw->write_all(head.data(), head.size()));
  ASSERT_TRUE(raw->write_all(junk.data(), junk.size()));
  const auto err = read_frame(*raw);
  ASSERT_TRUE(err.has_value());
  ASSERT_EQ(err->header.type, MsgType::kError);
  ErrorFrame decoded;
  ASSERT_EQ(decode_error(err->payload, decoded, ProtocolLimits{}),
            WireError::kNone);
  EXPECT_EQ(decoded.code, static_cast<std::uint32_t>(WireError::kBadType));

  // Same for a well-formed frame of a type only servers send.
  const auto resp_frame = encode_eval_response({.id = 1, .results = {}});
  ASSERT_TRUE(raw->write_all(resp_frame.data(), resp_frame.size()));
  const auto err2 = read_frame(*raw);
  ASSERT_TRUE(err2.has_value());
  EXPECT_EQ(err2->header.type, MsgType::kError);

  // The connection is still serving real requests.
  const auto list_frame = encode_list_request();
  ASSERT_TRUE(raw->write_all(list_frame.data(), list_frame.size()));
  const auto list = read_frame(*raw);
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(list->header.type, MsgType::kListResponse);
  EXPECT_EQ(stack.server->stats().frames_rejected, 2u);
}

TEST(NetE2E, ConnectionsBeyondTheCapAreTurnedAway) {
  NetServerOptions opts;
  opts.max_connections = 1;
  LoopbackStack stack(opts);

  NetClient first = stack.client();
  (void)first.list_grids();  // guarantees the first connection is accepted

  auto second = stack.listener.connect();
  ASSERT_NE(second, nullptr);
  const auto frame = read_frame(*second);  // unsolicited "go away"
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->header.type, MsgType::kError);
  EXPECT_FALSE(read_frame(*second).has_value());  // and the stream is closed
  const NetServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_rejected, 1u);
}

// --------------------------------------------------------------------------
// Corrupt-frame battery (randomized, CSG_PROPERTY_SEED replays)
// --------------------------------------------------------------------------

TEST(NetE2E, CorruptFrameBatteryNeverCrashesTheServer) {
  LoopbackStack stack;
  std::uint64_t expected_rejected = 0;

  const PropertyResult r = run_property(
      {.name = "net_corrupt_frames", .iterations = 24},
      [&](std::mt19937_64& rng) -> std::string {
        auto raw = stack.listener.connect();
        if (raw == nullptr) return "listener refused a connection";
        const std::uint64_t before = stack.server->stats().frames_rejected;
        enum Kind {
          kTruncatedHeader,
          kWrongMagic,
          kWrongEndianness,
          kWrongRealWidth,
          kOversizedLength,
          kGarbagePayload,
          kKindCount,
        };
        const auto kind = static_cast<Kind>(rng() % kKindCount);
        bool expect_error_frame = true;
        bool expect_close = true;
        WireError expect_code = WireError::kNone;

        switch (kind) {
          case kTruncatedHeader: {
            // 1..23 bytes of a valid frame, then end-of-stream.
            const auto frame = valid_header(MsgType::kListRequest, 0);
            const std::size_t n = 1 + rng() % (kFrameHeaderBytes - 1);
            if (!raw->write_all(frame.data(), n)) return "write failed";
            raw->shutdown();
            expect_error_frame = false;  // shutdown killed both directions
            break;
          }
          case kWrongMagic: {
            auto magic = kMagic;
            magic[rng() % magic.size()] ^= 0x20;
            const auto frame = raw_header(magic, kEndianTag, sizeof(real_t),
                                          kVersion, 1, 0, 0);
            if (!raw->write_all(frame.data(), frame.size()))
              return "write failed";
            expect_code = WireError::kBadMagic;
            break;
          }
          case kWrongEndianness: {
            const auto frame = raw_header(kMagic, 0x04030201u, sizeof(real_t),
                                          kVersion, 1, 0, 0);
            if (!raw->write_all(frame.data(), frame.size()))
              return "write failed";
            expect_code = WireError::kBadEndianness;
            break;
          }
          case kWrongRealWidth: {
            const auto frame =
                raw_header(kMagic, kEndianTag,
                           sizeof(real_t) == 8 ? 4u : 8u, kVersion, 1, 0, 0);
            if (!raw->write_all(frame.data(), frame.size()))
              return "write failed";
            expect_code = WireError::kBadRealWidth;
            break;
          }
          case kOversizedLength: {
            const auto frame = valid_header(
                MsgType::kEvalRequest,
                NetServerOptions{}.limits.max_frame_bytes + 1 + rng() % 1024);
            if (!raw->write_all(frame.data(), frame.size()))
              return "write failed";
            expect_code = WireError::kOversizedFrame;
            break;
          }
          case kGarbagePayload: {
            // Valid eval-request header, payload of 0xFF bytes: the name
            // length decodes as 0xFFFFFFFF > max_name_bytes, structurally
            // malformed, and the connection survives.
            const std::size_t n = 28 + rng() % 100;
            const auto head = valid_header(MsgType::kEvalRequest, n);
            const std::vector<std::uint8_t> garbage(n, 0xFF);
            if (!raw->write_all(head.data(), head.size()) ||
                !raw->write_all(garbage.data(), garbage.size()))
              return "write failed";
            expect_code = WireError::kBadPayload;
            expect_close = false;
            break;
          }
          default:
            return "unreachable";
        }
        ++expected_rejected;

        if (expect_error_frame) {
          const auto frame = read_frame(*raw);
          if (!frame.has_value()) return "expected an error frame, got EOF";
          if (frame->header.type != MsgType::kError)
            return "expected an error frame";
          ErrorFrame err;
          if (decode_error(frame->payload, err, ProtocolLimits{}) !=
              WireError::kNone)
            return "server sent a malformed error frame";
          if (err.code != static_cast<std::uint32_t>(expect_code))
            return std::string("wrong error code: got ") +
                   to_string(static_cast<WireError>(err.code)) + ", want " +
                   to_string(expect_code);
        }
        if (expect_close) {
          if (expect_error_frame && read_frame(*raw).has_value())
            return "connection should have closed";
        } else {
          // Recoverable: the same connection must answer a real request.
          const auto list_frame = encode_list_request();
          if (!raw->write_all(list_frame.data(), list_frame.size()))
            return "recoverable connection refused a follow-up write";
          const auto list = read_frame(*raw);
          if (!list.has_value() ||
              list->header.type != MsgType::kListResponse)
            return "recoverable connection did not answer a list request";
          raw->shutdown();
        }
        if (!eventually([&] {
              return stack.server->stats().frames_rejected == before + 1;
            }))
          return "frames_rejected did not advance by exactly one";
        return "";
      });
  EXPECT_TRUE(r.passed) << r.detail;
  // The battery's own ledger agrees with the server's counter.
  EXPECT_EQ(stack.server->stats().frames_rejected, expected_rejected);
  EXPECT_EQ(stack.server->stats().eval_requests, 0u);
}

// --------------------------------------------------------------------------
// Pipelined connections
// --------------------------------------------------------------------------

TEST(NetPipeline, ResponsesArriveInRequestOrderWhenEarlierBatchesAreSlower) {
  // The first request is a 64-point batch on g1, the next two are single
  // points on g0: if ordering depended on completion, the small batches
  // would overtake the big one. Submitting against a *paused* service
  // guarantees all three frames are admitted while zero responses have
  // been written, so the pipelining counters are exact.
  serve::ServiceOptions sopts;
  sopts.start_paused = true;
  LoopbackStack stack({}, sopts);
  const auto e0 = stack.registry.find("g0");
  const auto e1 = stack.registry.find("g1");
  NetClient client = stack.client();

  const auto big = workloads::uniform_points(3, 64, 43);
  const auto small = workloads::uniform_points(2, 1, 44);
  const std::uint64_t id_a = client.submit_eval("g1", big);
  const std::uint64_t id_b = client.submit_eval("g0", small);
  const std::uint64_t id_c = client.submit_eval("g0", small);
  EXPECT_EQ(client.outstanding(), 3u);

  // Blocking calls must refuse to interleave with pipelined traffic.
  EXPECT_THROW((void)client.list_grids(), std::runtime_error);

  ASSERT_TRUE(eventually(
      [&] { return stack.server->stats().eval_requests >= 3; }));
  stack.service->start();

  // collect() itself throws on any id or point-count mismatch; check the
  // ids explicitly anyway, plus bit-identical values.
  const EvalResponse ra = client.collect();
  EXPECT_EQ(ra.id, id_a);
  ASSERT_EQ(ra.results.size(), big.size());
  for (std::size_t k = 0; k < big.size(); ++k)
    EXPECT_EQ(ra.results[k].value, evaluate(e1->storage, big[k])) << k;
  const EvalResponse rb = client.collect();
  EXPECT_EQ(rb.id, id_b);
  ASSERT_EQ(rb.results.size(), 1u);
  EXPECT_EQ(rb.results[0].value, evaluate(e0->storage, small[0]));
  const EvalResponse rc = client.collect();
  EXPECT_EQ(rc.id, id_c);
  EXPECT_EQ(client.outstanding(), 0u);

  // Frames 2 and 3 were admitted while response 1 was still pending.
  const NetServerStats ns = stack.server->stats();
  EXPECT_EQ(ns.pipelined_frames, 2u);
  EXPECT_EQ(ns.frames_in_flight_peak, 3u);
}

TEST(NetPipeline, ReaderExitDrainsEveryQueuedResponseInOrder) {
  // Four pipelined evals followed by a corrupted header: the reader stops
  // at the corruption, but the writer must still flush all four queued
  // responses (in request order) plus the final error frame before the
  // connection closes — pipelining must not turn a reader exit into
  // dropped responses.
  serve::ServiceOptions sopts;
  sopts.start_paused = true;
  LoopbackStack stack({}, sopts);
  auto raw = stack.listener.connect();

  const auto pts = workloads::uniform_points(2, 3, 45);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EvalRequest req;
    req.id = id;
    req.grid = "g0";
    req.points = pts;
    const auto frame = encode_eval_request(req);
    ASSERT_TRUE(raw->write_all(frame.data(), frame.size()));
  }
  ASSERT_TRUE(eventually(
      [&] { return stack.server->stats().eval_requests >= 4; }));
  auto bad = valid_header(MsgType::kEvalRequest, 0);
  bad[0] ^= 0x20;  // corrupt the magic: a header-level close
  ASSERT_TRUE(raw->write_all(bad.data(), bad.size()));

  // Nothing can flush until the service runs.
  stack.service->start();
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const auto frame = read_frame(*raw);
    ASSERT_TRUE(frame.has_value()) << "response " << id << " was dropped";
    ASSERT_EQ(frame->header.type, MsgType::kEvalResponse);
    EvalResponse resp;
    ASSERT_EQ(decode_eval_response(frame->payload, resp, {}),
              WireError::kNone);
    EXPECT_EQ(resp.id, id);
    ASSERT_EQ(resp.results.size(), pts.size());
  }
  const auto err_frame = read_frame(*raw);
  ASSERT_TRUE(err_frame.has_value());
  ASSERT_EQ(err_frame->header.type, MsgType::kError);
  ErrorFrame err;
  ASSERT_EQ(decode_error(err_frame->payload, err, {}), WireError::kNone);
  EXPECT_EQ(static_cast<WireError>(err.code), WireError::kBadMagic);
  EXPECT_FALSE(read_frame(*raw).has_value());  // then the connection closes
}

// --------------------------------------------------------------------------
// Multi-client soak + drain shutdown
// --------------------------------------------------------------------------

TEST(NetSoak, MultiClientMixedTrafficThenDrainShutdown) {
  NetServerOptions opts;
  opts.limits.max_batch_points = 32;
  serve::ServiceOptions service_opts;
  service_opts.workers = 2;
  service_opts.queue_capacity = 4096;
  service_opts.max_batch_points = 16;
  LoopbackStack stack(opts, service_opts);
  const auto e0 = stack.registry.find("g0");
  const auto e1 = stack.registry.find("g1");

  constexpr int kClients = 4;
  constexpr int kRounds = 30;  // per client; round % 3 picks the traffic mix
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      ProtocolLimits loose;
      loose.max_batch_points = 1 << 16;
      NetClient client(stack.listener.connect(), loose);
      const auto& entry = (c % 2 == 0) ? e0 : e1;
      const auto grid = (c % 2 == 0) ? "g0" : "g1";
      const dim_t d = entry->storage.dim();
      for (int round = 0; round < kRounds; ++round) {
        const auto pts = workloads::uniform_points(
            d, 4, static_cast<std::uint32_t>(1000 * c + round));
        try {
          switch (round % 3) {
            case 0: {  // valid traffic: bit-identical to direct evaluate()
              const EvalResponse resp = client.evaluate_batch(grid, pts);
              for (std::size_t k = 0; k < pts.size(); ++k)
                if (resp.results[k].status !=
                        static_cast<std::uint8_t>(serve::Status::kOk) ||
                    resp.results[k].value != evaluate(entry->storage, pts[k]))
                  failures.fetch_add(1);
              break;
            }
            case 1: {  // expired budget: every point times out
              const EvalResponse resp =
                  client.evaluate_batch(grid, pts, -1);
              for (const PointResult& r : resp.results)
                if (r.status !=
                    static_cast<std::uint8_t>(serve::Status::kTimeout))
                  failures.fetch_add(1);
              break;
            }
            case 2: {  // oversized batch: rejected, connection survives
              const auto big = workloads::uniform_points(
                  d, 33, static_cast<std::uint32_t>(c + round));
              try {
                (void)client.evaluate_batch(grid, big);
                failures.fetch_add(1);
              } catch (const RemoteError& e) {
                if (e.code() != WireError::kOversizedBatch)
                  failures.fetch_add(1);
              }
              break;
            }
            default:
              break;
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Deterministic post-soak ledger: kClients * kRounds requests, one third
  // each valid / expired / oversized, 4 points per non-oversized request.
  const NetServerStats ns = stack.server->stats();
  const auto total = static_cast<std::uint64_t>(kClients) * kRounds;
  EXPECT_EQ(ns.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(ns.eval_requests, total * 2 / 3);
  EXPECT_EQ(ns.eval_points, total * 2 / 3 * 4);
  EXPECT_EQ(ns.frames_rejected, total / 3);
  EXPECT_EQ(ns.error_frames_sent, total / 3);
  const serve::ServiceStats sv = stack.service->stats();
  EXPECT_EQ(sv.shed_at_admission, total / 3 * 4);
  EXPECT_EQ(sv.timed_out, total / 3 * 4);
  EXPECT_EQ(sv.completed, total / 3 * 4);

  // The same ledger fetched over the wire at quiescence reconciles, and
  // every decoded eval point reached the service exactly once.
  const WireStats ws = stack.client().fetch_stats();
  expect_reconciled(ws.service);
  EXPECT_EQ(ws.service.submitted, ws.net.eval_points);
  EXPECT_EQ(ws.service.completed, sv.completed);

  // Drain shutdown under live traffic: one more client hammers the server
  // while stop() lands. Every response that arrives must still be complete
  // and bit-identical; the client must end with a clean transport error,
  // never a crash or a torn result.
  std::atomic<std::uint64_t> drained_ok{0};
  std::thread drainer([&] {
    try {
      NetClient client(stack.listener.connect());
      const auto pts = workloads::uniform_points(2, 1, 424242);
      for (;;) {
        const EvalResponse resp = client.evaluate_batch("g0", pts);
        if (resp.results[0].status !=
                static_cast<std::uint8_t>(serve::Status::kOk) ||
            resp.results[0].value != evaluate(e0->storage, pts[0])) {
          failures.fetch_add(1);
          return;
        }
        drained_ok.fetch_add(1);
      }
    } catch (const std::exception&) {
      // Expected: the server went away mid-loop.
    }
  });
  while (drained_ok.load() < 5) std::this_thread::yield();
  stack.server->stop();
  drainer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(drained_ok.load(), 5u);
}

// --------------------------------------------------------------------------
// Real TCP
// --------------------------------------------------------------------------

TEST(NetTcp, EvalOverRealSocketsMatchesDirectEvaluate) {
  serve::GridRegistry registry;
  registry.add("g0", make_grid(2, 4));
  const auto entry = registry.find("g0");
  serve::EvalService service(registry, {});
  TcpListener listener(0);  // ephemeral port
  ASSERT_GT(listener.port(), 0);
  NetServer server(listener, registry, service, {});
  server.start();

  {
    NetClient client = NetClient::connect_tcp("127.0.0.1", listener.port());
    const auto pts = workloads::uniform_points(2, 32, 77);
    const EvalResponse resp = client.evaluate_batch("g0", pts);
    ASSERT_EQ(resp.results.size(), pts.size());
    for (std::size_t k = 0; k < pts.size(); ++k) {
      ASSERT_EQ(resp.results[k].status,
                static_cast<std::uint8_t>(serve::Status::kOk));
      EXPECT_EQ(resp.results[k].value, evaluate(entry->storage, pts[k])) << k;
    }
    EXPECT_EQ(client.list_grids().grids.size(), 1u);
  }
  server.stop();
  service.stop();
}

TEST(NetTcp, BindConflictThrows) {
  TcpListener first(0);
  ASSERT_GT(first.port(), 0);
  EXPECT_THROW(TcpListener second(first.port()), std::runtime_error);
}

}  // namespace
}  // namespace csg::net
