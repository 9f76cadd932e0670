// csg::net wire protocol — the versioned, self-describing binary layout in
// front of serve::EvalService (docs/SERVING.md "Wire protocol").
//
// Every frame opens with the same self-description the on-disk formats use
// (docs/FORMATS.md): a 4-byte magic, the 0x01020304 byte-order tag written
// natively, and sizeof(real_t) of the writing build. A peer on a machine
// with the opposite byte order, or built with a retyped real_t, rejects the
// very first frame loudly instead of silently misreading coordinates. The
// header then carries a protocol version, a message type, and a 64-bit
// payload length, so a reader always knows how many bytes to consume before
// interpreting anything.
//
// Decoding is total: every malformed input maps to a WireError, never to a
// crash or an exception. Payload decoders are structural (lengths, counts,
// ranges, exact consumption) — semantic failures (unknown grid, coordinate
// outside [0,1]) travel as per-point serve::Status values in the response,
// exactly like the in-process API.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "csg/core/dim_vector.hpp"
#include "csg/core/types.hpp"
#include "csg/serve/counters.hpp"

namespace csg::net {

/// Frame magic: "CSRV" (Compact Sparse-grid eRpc, Versioned).
inline constexpr std::array<char, 4> kMagic{'C', 'S', 'R', 'V'};
/// Byte-order tag, written natively; a byte-swapped peer reads 0x04030201.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
/// Wire protocol version this build speaks.
inline constexpr std::uint16_t kVersion = 2;
/// Fixed frame header size: magic + tag + real width + version + type +
/// reserved + payload length (see docs/SERVING.md for the layout table).
inline constexpr std::size_t kFrameHeaderBytes = 24;

enum class MsgType : std::uint8_t {
  kEvalRequest = 1,
  kEvalResponse = 2,
  kListRequest = 3,
  kListResponse = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
  kError = 7,
};

/// Everything that can be wrong with a frame. Header errors (kBadMagic
/// through kOversizedFrame) mean the stream position can no longer be
/// trusted and the connection must close; kBadType/kOversizedBatch/
/// kBadPayload leave the length-prefixed framing intact, so a server can
/// answer with an error frame and keep the connection.
enum class WireError : std::uint8_t {
  kNone = 0,
  kBadMagic,        ///< first four bytes are not "CSRV"
  kBadEndianness,   ///< byte-order tag mismatch (cross-endian peer)
  kBadRealWidth,    ///< sizeof(real_t) mismatch between the builds
  kBadVersion,      ///< protocol version this build does not speak
  kBadReserved,     ///< reserved header byte not zero
  kOversizedFrame,  ///< payload length exceeds the frame limit
  kBadType,         ///< unknown message type
  kOversizedBatch,  ///< eval request carries more points than allowed
  kBadPayload,      ///< structural decode failure inside the payload
  kTruncated,       ///< stream ended mid-frame
};

const char* to_string(WireError e);

/// Shared bounds for both peers. The server enforces them on requests, the
/// client on responses; tests deliberately loosen one side to drive the
/// other's rejection paths.
struct ProtocolLimits {
  std::uint64_t max_frame_bytes = 1u << 20;  ///< payload bytes per frame
  std::uint64_t max_batch_points = 4096;     ///< points per eval request
  std::uint64_t max_name_bytes = 256;        ///< grid name length
  std::uint64_t max_error_bytes = 1024;      ///< error message length
  std::uint64_t max_list_entries = 4096;     ///< grids per list response
};

/// Decoded fixed header of one frame.
struct FrameHeader {
  std::uint16_t version = 0;
  MsgType type = MsgType::kError;
  std::uint64_t payload_bytes = 0;
};

// --------------------------------------------------------------------------
// Message bodies
// --------------------------------------------------------------------------

/// Evaluate-batch request: `points.size()` queries against one grid.
/// `deadline_us` is a *relative* budget in microseconds, measured from the
/// moment the server decodes the frame (relative, so peers need no clock
/// sync): 0 = no deadline, negative = already expired on arrival (the
/// deterministic way to exercise the timeout/shedding path end to end).
struct EvalRequest {
  std::uint64_t id = 0;
  std::string grid;
  std::int64_t deadline_us = 0;
  std::vector<CoordVector> points;
};

struct PointResult {
  std::uint8_t status = 0;  ///< a serve::Status value
  real_t value = 0;
};

struct EvalResponse {
  std::uint64_t id = 0;
  std::vector<PointResult> results;
};

struct GridInfo {
  std::string name;
  std::uint32_t dim = 0;
  std::uint32_t level = 0;
  std::uint64_t points = 0;
  std::uint64_t memory_bytes = 0;
};

struct ListResponse {
  std::vector<GridInfo> grids;
};

/// Cumulative network-layer counters of a NetServer (the service keeps its
/// own). Declared once, like the serve:: counter blocks.
template <typename T>
struct NetCounters {
  T connections_accepted{};
  T connections_rejected{};  ///< over max_connections
  T connections_closed{};
  T frames_decoded{};   ///< well-formed request frames
  T frames_rejected{};  ///< malformed or over-limit frames
  T eval_requests{};
  T eval_points{};
  T list_requests{};
  T stats_requests{};
  T error_frames_sent{};
  T bytes_in{};
  T bytes_out{};
  T active_connections{};  ///< gauge, not cumulative
  /// High-water mark of response slots outstanding on any one connection.
  T frames_in_flight_peak{};
  /// Frames admitted while >= 1 earlier frame on the same connection was
  /// still pending — zero for a strictly serial client.
  T pipelined_frames{};

  template <typename F, typename... B>
  static void fields(F&& f, B&... b) {
    f("connections_accepted", b.connections_accepted...);
    f("connections_rejected", b.connections_rejected...);
    f("connections_closed", b.connections_closed...);
    f("frames_decoded", b.frames_decoded...);
    f("frames_rejected", b.frames_rejected...);
    f("eval_requests", b.eval_requests...);
    f("eval_points", b.eval_points...);
    f("list_requests", b.list_requests...);
    f("stats_requests", b.stats_requests...);
    f("error_frames_sent", b.error_frames_sent...);
    f("bytes_in", b.bytes_in...);
    f("bytes_out", b.bytes_out...);
    f("active_connections", b.active_connections...);
    f("frames_in_flight_peak", b.frames_in_flight_peak...);
    f("pipelined_frames", b.pipelined_frames...);
  }
};
using NetServerStats = NetCounters<std::uint64_t>;

/// Stats response body: every counter of the service, its shards and the
/// network layer, keyed by name on the wire.
struct WireStats {
  serve::ServiceStats service;
  NetServerStats net;
};

/// Error frame: `code` is a WireError value; `id` echoes the offending
/// request's id when one was decodable, 0 otherwise.
struct ErrorFrame {
  std::uint64_t id = 0;
  std::uint32_t code = 0;
  std::string message;
};

// --------------------------------------------------------------------------
// Codec
// --------------------------------------------------------------------------

/// Encoders produce one complete frame (header + payload). They never fail:
/// size limits are the *receiving* side's business, and tests need to be
/// able to encode oversized frames to drive rejections.
std::vector<std::uint8_t> encode_eval_request(const EvalRequest& msg);
std::vector<std::uint8_t> encode_eval_response(const EvalResponse& msg);
std::vector<std::uint8_t> encode_list_request();
std::vector<std::uint8_t> encode_list_response(const ListResponse& msg);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats_response(const WireStats& msg);
std::vector<std::uint8_t> encode_error(const ErrorFrame& msg);

/// Validate the 24-byte fixed header. `bytes` must hold at least
/// kFrameHeaderBytes. Checks run in wire order (magic, endianness, real
/// width, version, reserved, type, length-vs-limit) so the first corrupted
/// field names the rejection.
WireError decode_header(std::span<const std::uint8_t> bytes, FrameHeader& out,
                        const ProtocolLimits& limits);

/// Payload decoders: structural validation plus exact consumption — any
/// trailing or missing byte is kBadPayload. decode_eval_request additionally
/// enforces limits.max_batch_points (kOversizedBatch) and
/// limits.max_name_bytes / dimension bounds (kBadPayload).
/// decode_stats_response matches counters by name: unknown names are
/// skipped, missing ones read 0.
WireError decode_eval_request(std::span<const std::uint8_t> payload,
                              EvalRequest& out, const ProtocolLimits& limits);
WireError decode_eval_response(std::span<const std::uint8_t> payload,
                               EvalResponse& out,
                               const ProtocolLimits& limits);
WireError decode_list_response(std::span<const std::uint8_t> payload,
                               ListResponse& out,
                               const ProtocolLimits& limits);
WireError decode_stats_response(std::span<const std::uint8_t> payload,
                                WireStats& out, const ProtocolLimits& limits);
WireError decode_error(std::span<const std::uint8_t> payload, ErrorFrame& out,
                       const ProtocolLimits& limits);

}  // namespace csg::net
