#include "csg/net/protocol.hpp"

#include <string_view>

namespace csg::net {

namespace {

/// Append-only native-order byte writer.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  void put_bytes(const void* data, std::size_t n) {
    const auto at = out_.size();
    out_.resize(at + n);
    if (n > 0) std::memcpy(out_.data() + at, data, n);
  }

  void put_string(std::string_view s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked native-order reader. Overruns latch `ok() == false`;
/// values read past the end are zero, so callers can defer the error check
/// to one place.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (pos_ + sizeof(T) > data_.size()) {
      ok_ = false;
      pos_ = data_.size();
      return v;
    }
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool get_string(std::string& out, std::uint64_t max_bytes) {
    const auto len = get<std::uint32_t>();
    if (!ok_ || len > max_bytes || pos_ + len > data_.size()) {
      ok_ = false;
      return false;
    }
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// True iff every payload byte was consumed and nothing overran.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// A counter block on the wire: u32 count, then count (string name, u64
/// value) pairs in the block's declaration order.
template <typename Block>
void put_block(Writer& w, const Block& block) {
  std::uint32_t count = 0;
  Block::fields([&](const char*, std::uint64_t) { ++count; }, block);
  w.put<std::uint32_t>(count);
  Block::fields(
      [&](const char* name, std::uint64_t value) {
        w.put_string(name);
        w.put<std::uint64_t>(value);
      },
      block);
}

/// Read one counter block by name: unknown names are skipped (a newer peer's
/// counters), names the frame lacks keep their current value. False on a
/// truncated pair, an over-long name, or a pair count the remaining bytes
/// cannot hold.
template <typename Block>
bool get_block(Reader& r, Block& block, const ProtocolLimits& limits) {
  constexpr std::size_t kMinPairBytes =
      sizeof(std::uint32_t) + sizeof(std::uint64_t);
  const auto count = r.get<std::uint32_t>();
  if (!r.ok() || count > r.remaining() / kMinPairBytes) return false;
  std::string name;
  for (std::uint32_t k = 0; k < count; ++k) {
    if (!r.get_string(name, limits.max_name_bytes)) return false;
    const auto value = r.get<std::uint64_t>();
    if (!r.ok()) return false;
    Block::fields(
        [&](const char* field, std::uint64_t& slot) {
          if (name == field) slot = value;
        },
        block);
  }
  return true;
}

/// Reserve a frame header slot; the payload length is patched in last.
std::vector<std::uint8_t> begin_frame(MsgType type) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes);
  Writer w(out);
  w.put_bytes(kMagic.data(), kMagic.size());
  w.put<std::uint32_t>(kEndianTag);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(sizeof(real_t)));
  w.put<std::uint16_t>(kVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(type));
  w.put<std::uint8_t>(0);  // reserved
  w.put<std::uint64_t>(0);  // payload length, patched by end_frame
  return out;
}

std::vector<std::uint8_t> end_frame(std::vector<std::uint8_t> frame) {
  const std::uint64_t payload = frame.size() - kFrameHeaderBytes;
  std::memcpy(frame.data() + (kFrameHeaderBytes - sizeof(std::uint64_t)),
              &payload, sizeof(payload));
  return frame;
}

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kEvalRequest) &&
         t <= static_cast<std::uint8_t>(MsgType::kError);
}

}  // namespace

const char* to_string(WireError e) {
  switch (e) {
    case WireError::kNone:
      return "ok";
    case WireError::kBadMagic:
      return "bad magic";
    case WireError::kBadEndianness:
      return "endianness mismatch";
    case WireError::kBadRealWidth:
      return "real_t width mismatch";
    case WireError::kBadVersion:
      return "unsupported protocol version";
    case WireError::kBadReserved:
      return "nonzero reserved header byte";
    case WireError::kOversizedFrame:
      return "frame exceeds size limit";
    case WireError::kBadType:
      return "unknown message type";
    case WireError::kOversizedBatch:
      return "batch exceeds point limit";
    case WireError::kBadPayload:
      return "malformed payload";
    case WireError::kTruncated:
      return "truncated frame";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_eval_request(const EvalRequest& msg) {
  auto frame = begin_frame(MsgType::kEvalRequest);
  Writer w(frame);
  w.put<std::uint64_t>(msg.id);
  w.put<std::int64_t>(msg.deadline_us);
  w.put_string(msg.grid);
  const std::uint32_t dim =
      msg.points.empty() ? 0 : static_cast<std::uint32_t>(msg.points[0].size());
  w.put<std::uint32_t>(dim);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(msg.points.size()));
  for (const CoordVector& p : msg.points)
    for (dim_t t = 0; t < p.size(); ++t) w.put<real_t>(p[t]);
  return end_frame(std::move(frame));
}

std::vector<std::uint8_t> encode_eval_response(const EvalResponse& msg) {
  auto frame = begin_frame(MsgType::kEvalResponse);
  Writer w(frame);
  w.put<std::uint64_t>(msg.id);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(msg.results.size()));
  for (const PointResult& r : msg.results) {
    w.put<std::uint8_t>(r.status);
    w.put<real_t>(r.value);
  }
  return end_frame(std::move(frame));
}

std::vector<std::uint8_t> encode_list_request() {
  return end_frame(begin_frame(MsgType::kListRequest));
}

std::vector<std::uint8_t> encode_list_response(const ListResponse& msg) {
  auto frame = begin_frame(MsgType::kListResponse);
  Writer w(frame);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(msg.grids.size()));
  for (const GridInfo& g : msg.grids) {
    w.put_string(g.name);
    w.put<std::uint32_t>(g.dim);
    w.put<std::uint32_t>(g.level);
    w.put<std::uint64_t>(g.points);
    w.put<std::uint64_t>(g.memory_bytes);
  }
  return end_frame(std::move(frame));
}

std::vector<std::uint8_t> encode_stats_request() {
  return end_frame(begin_frame(MsgType::kStatsRequest));
}

std::vector<std::uint8_t> encode_stats_response(const WireStats& msg) {
  auto frame = begin_frame(MsgType::kStatsResponse);
  Writer w(frame);
  put_block(w, msg.service);
  put_block(w, msg.net);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(msg.service.shards.size()));
  for (const serve::ServiceStats::ShardStats& sh : msg.service.shards)
    put_block(w, sh);
  return end_frame(std::move(frame));
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& msg) {
  auto frame = begin_frame(MsgType::kError);
  Writer w(frame);
  w.put<std::uint64_t>(msg.id);
  w.put<std::uint32_t>(msg.code);
  w.put_string(msg.message);
  return end_frame(std::move(frame));
}

WireError decode_header(std::span<const std::uint8_t> bytes, FrameHeader& out,
                        const ProtocolLimits& limits) {
  if (bytes.size() < kFrameHeaderBytes) return WireError::kTruncated;
  Reader r(bytes.first(kFrameHeaderBytes));
  std::array<char, 4> magic{};
  for (char& c : magic) c = static_cast<char>(r.get<std::uint8_t>());
  if (magic != kMagic) return WireError::kBadMagic;
  if (r.get<std::uint32_t>() != kEndianTag) return WireError::kBadEndianness;
  if (r.get<std::uint32_t>() != sizeof(real_t)) return WireError::kBadRealWidth;
  out.version = r.get<std::uint16_t>();
  if (out.version != kVersion) return WireError::kBadVersion;
  const auto type = r.get<std::uint8_t>();
  const auto reserved = r.get<std::uint8_t>();
  if (reserved != 0) return WireError::kBadReserved;
  out.payload_bytes = r.get<std::uint64_t>();
  if (out.payload_bytes > limits.max_frame_bytes)
    return WireError::kOversizedFrame;
  if (!known_type(type)) return WireError::kBadType;
  out.type = static_cast<MsgType>(type);
  return WireError::kNone;
}

WireError decode_eval_request(std::span<const std::uint8_t> payload,
                              EvalRequest& out, const ProtocolLimits& limits) {
  Reader r(payload);
  out.id = r.get<std::uint64_t>();
  out.deadline_us = r.get<std::int64_t>();
  if (!r.get_string(out.grid, limits.max_name_bytes))
    return WireError::kBadPayload;
  const auto dim = r.get<std::uint32_t>();
  const auto count = r.get<std::uint32_t>();
  if (!r.ok()) return WireError::kBadPayload;
  if (dim < 1 || dim > kMaxDim || count < 1) return WireError::kBadPayload;
  if (count > limits.max_batch_points) return WireError::kOversizedBatch;
  out.points.assign(count, CoordVector(static_cast<dim_t>(dim), 0));
  for (CoordVector& p : out.points)
    for (dim_t t = 0; t < p.size(); ++t) p[t] = r.get<real_t>();
  return r.done() ? WireError::kNone : WireError::kBadPayload;
}

WireError decode_eval_response(std::span<const std::uint8_t> payload,
                               EvalResponse& out,
                               const ProtocolLimits& limits) {
  Reader r(payload);
  out.id = r.get<std::uint64_t>();
  const auto count = r.get<std::uint32_t>();
  if (!r.ok() || count > limits.max_batch_points)
    return WireError::kBadPayload;
  out.results.assign(count, PointResult{});
  for (PointResult& p : out.results) {
    p.status = r.get<std::uint8_t>();
    p.value = r.get<real_t>();
  }
  return r.done() ? WireError::kNone : WireError::kBadPayload;
}

WireError decode_list_response(std::span<const std::uint8_t> payload,
                               ListResponse& out,
                               const ProtocolLimits& limits) {
  Reader r(payload);
  const auto count = r.get<std::uint32_t>();
  if (!r.ok() || count > limits.max_list_entries)
    return WireError::kBadPayload;
  out.grids.assign(count, GridInfo{});
  for (GridInfo& g : out.grids) {
    if (!r.get_string(g.name, limits.max_name_bytes))
      return WireError::kBadPayload;
    g.dim = r.get<std::uint32_t>();
    g.level = r.get<std::uint32_t>();
    g.points = r.get<std::uint64_t>();
    g.memory_bytes = r.get<std::uint64_t>();
  }
  return r.done() ? WireError::kNone : WireError::kBadPayload;
}

WireError decode_stats_response(std::span<const std::uint8_t> payload,
                                WireStats& out, const ProtocolLimits& limits) {
  Reader r(payload);
  out = WireStats{};
  if (!get_block(r, out.service, limits) || !get_block(r, out.net, limits))
    return WireError::kBadPayload;
  // Every shard block holds at least its own u32 pair count.
  const auto shards = r.get<std::uint32_t>();
  if (!r.ok() || shards > r.remaining() / sizeof(std::uint32_t))
    return WireError::kBadPayload;
  out.service.shards.resize(shards);
  for (serve::ServiceStats::ShardStats& sh : out.service.shards)
    if (!get_block(r, sh, limits)) return WireError::kBadPayload;
  return r.done() ? WireError::kNone : WireError::kBadPayload;
}

WireError decode_error(std::span<const std::uint8_t> payload, ErrorFrame& out,
                       const ProtocolLimits& limits) {
  Reader r(payload);
  out.id = r.get<std::uint64_t>();
  out.code = r.get<std::uint32_t>();
  if (!r.get_string(out.message, limits.max_error_bytes))
    return WireError::kBadPayload;
  return r.done() ? WireError::kNone : WireError::kBadPayload;
}

}  // namespace csg::net
