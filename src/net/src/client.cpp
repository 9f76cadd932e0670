#include "csg/net/client.hpp"

#include <utility>

namespace csg::net {

NetClient::NetClient(std::unique_ptr<ByteStream> stream, ProtocolLimits limits)
    : stream_(std::move(stream)), limits_(limits) {
  if (stream_ == nullptr)
    throw std::runtime_error("csg::net: client constructed without a stream");
}

NetClient NetClient::connect_tcp(const std::string& host, std::uint16_t port,
                                 ProtocolLimits limits) {
  return NetClient(tcp_connect(host, port), limits);
}

void NetClient::close() {
  if (stream_ != nullptr) stream_->shutdown();
  stream_.reset();
  pending_.clear();
}

void NetClient::require_idle(const char* what) const {
  if (!pending_.empty())
    throw std::runtime_error(
        std::string("csg::net: ") + what +
        " with pipelined requests outstanding (collect() them first)");
}

void NetClient::write_frame(const std::vector<std::uint8_t>& frame) {
  if (stream_ == nullptr)
    throw std::runtime_error("csg::net: client is closed");
  if (!stream_->write_all(frame.data(), frame.size()))
    throw std::runtime_error("csg::net: connection lost while sending");
}

std::vector<std::uint8_t> NetClient::round_trip(
    const std::vector<std::uint8_t>& frame, MsgType want) {
  write_frame(frame);
  return read_response(want);
}

std::vector<std::uint8_t> NetClient::read_response(MsgType want) {
  if (stream_ == nullptr)
    throw std::runtime_error("csg::net: client is closed");
  std::uint8_t header_buf[kFrameHeaderBytes];
  if (!read_exact(*stream_, header_buf, kFrameHeaderBytes))
    throw std::runtime_error("csg::net: connection closed by server");
  FrameHeader header;
  const WireError head_err =
      decode_header({header_buf, kFrameHeaderBytes}, header, limits_);
  if (head_err != WireError::kNone)
    throw std::runtime_error(std::string("csg::net: bad response header: ") +
                             to_string(head_err));

  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(header.payload_bytes));
  if (header.payload_bytes > 0 &&
      !read_exact(*stream_, payload.data(), payload.size()))
    throw std::runtime_error("csg::net: truncated response");

  if (header.type == MsgType::kError) {
    ErrorFrame err;
    if (decode_error(payload, err, limits_) != WireError::kNone)
      throw std::runtime_error("csg::net: malformed error frame");
    throw RemoteError(static_cast<WireError>(err.code),
                      "csg::net: server rejected request: " + err.message);
  }
  if (header.type != want)
    throw std::runtime_error("csg::net: unexpected response type");
  return payload;
}

EvalResponse NetClient::evaluate_batch(const std::string& name,
                                       const std::vector<CoordVector>& points,
                                       std::int64_t deadline_us) {
  require_idle("evaluate_batch");
  (void)submit_eval(name, points, deadline_us);
  return collect();
}

std::uint64_t NetClient::submit_eval(const std::string& name,
                                     const std::vector<CoordVector>& points,
                                     std::int64_t deadline_us) {
  EvalRequest req;
  req.id = next_id_++;
  req.grid = name;
  req.deadline_us = deadline_us;
  req.points = points;
  write_frame(encode_eval_request(req));
  pending_.push_back({req.id, points.size()});
  return req.id;
}

EvalResponse NetClient::collect() {
  if (pending_.empty())
    throw std::runtime_error("csg::net: collect() with nothing outstanding");
  // Responses come back in request order, so the frame on the stream
  // belongs to the oldest pending submission. Any failure (including a
  // RemoteError frame) consumes that submission: the slot is spent either
  // way, and the caller keeps collecting the rest.
  const PendingEval expect = pending_.front();
  pending_.pop_front();
  const auto payload = read_response(MsgType::kEvalResponse);

  EvalResponse resp;
  const WireError err = decode_eval_response(payload, resp, limits_);
  if (err != WireError::kNone)
    throw std::runtime_error(std::string("csg::net: malformed response: ") +
                             to_string(err));
  if (resp.id != expect.id)
    throw std::runtime_error("csg::net: response id mismatch");
  if (resp.results.size() != expect.points)
    throw std::runtime_error("csg::net: response point count mismatch");
  return resp;
}

ListResponse NetClient::list_grids() {
  require_idle("list_grids");
  const auto payload =
      round_trip(encode_list_request(), MsgType::kListResponse);
  ListResponse resp;
  if (decode_list_response(payload, resp, limits_) != WireError::kNone)
    throw std::runtime_error("csg::net: malformed list response");
  return resp;
}

WireStats NetClient::fetch_stats() {
  require_idle("fetch_stats");
  const auto payload =
      round_trip(encode_stats_request(), MsgType::kStatsResponse);
  WireStats stats;
  if (decode_stats_response(payload, stats, limits_) != WireError::kNone)
    throw std::runtime_error("csg::net: malformed stats response");
  return stats;
}

}  // namespace csg::net
