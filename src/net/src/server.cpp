#include "csg/net/server.hpp"

#include <chrono>
#include <future>
#include <utility>

namespace csg::net {

namespace {

/// Header errors poison the stream position; payload errors do not.
bool closes_connection(WireError e) {
  switch (e) {
    case WireError::kBadMagic:
    case WireError::kBadEndianness:
    case WireError::kBadRealWidth:
    case WireError::kBadVersion:
    case WireError::kBadReserved:
    case WireError::kOversizedFrame:
    case WireError::kTruncated:
      return true;
    default:
      return false;
  }
}

}  // namespace

NetServer::NetServer(Listener& listener, const serve::GridRegistry& registry,
                     serve::EvalService& service, NetServerOptions opts)
    : listener_(listener),
      registry_(registry),
      service_(service),
      opts_(opts) {}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  MutexLock lock(mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void NetServer::stop() {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Wake every connection blocked in a read; handlers finish the request
  // they are processing (and flush its response) before exiting.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(mutex_);
    conns.swap(connections_);
  }
  for (const auto& c : conns) c->stream->shutdown();
  for (const auto& c : conns)
    if (c->thread.joinable()) c->thread.join();
}

NetServerStats NetServer::stats() const { return serve::snapshot(counters_); }

void NetServer::reap_locked() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    if (c->thread.joinable()) c->thread.join();
    return true;
  });
}

void NetServer::accept_loop() {
  for (;;) {
    std::unique_ptr<ByteStream> stream = listener_.accept();
    if (stream == nullptr) return;  // listener closed: shutting down

    MutexLock lock(mutex_);
    reap_locked();
    if (stopping_.load(std::memory_order_acquire) ||
        connections_.size() >= opts_.max_connections) {
      counters_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      send(*stream, error_slot(0, WireError::kNone).frame, true);  // go away
      continue;  // stream destructor closes it
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.active_connections.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->stream = std::shared_ptr<ByteStream>(std::move(stream));
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] {
      connection_loop(*raw->stream);
      // Close eagerly: the peer must see end-of-stream now, not when the
      // connection record is reaped or the server stops.
      raw->stream->shutdown();
      counters_.active_connections.fetch_sub(1, std::memory_order_relaxed);
      counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(conn));
  }
}

void NetServer::connection_loop(ByteStream& stream) {
  // Reader half of the connection: decode frames and enqueue response
  // slots; the writer thread drains them in request order. The pipeline
  // lives on this stack frame — the writer is joined before it unwinds.
  Pipeline pipeline;
  std::thread writer(
      [this, &stream, &pipeline] { writer_loop(stream, pipeline); });

  std::vector<std::uint8_t> header_buf(kFrameHeaderBytes);
  std::vector<std::uint8_t> payload;
  for (;;) {
    // Clean end-of-stream between frames is a normal close; anything that
    // ends inside a frame is a truncation and counts as rejected.
    const std::size_t first = stream.read_some(header_buf.data(), 1);
    if (first == 0) break;
    if (!read_exact(stream, header_buf.data() + 1, kFrameHeaderBytes - 1)) {
      counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    counters_.bytes_in.fetch_add(kFrameHeaderBytes, std::memory_order_relaxed);

    FrameHeader header;
    const WireError head_err = decode_header(header_buf, header, opts_.limits);
    if (head_err == WireError::kBadType) {
      // The length field is trustworthy, so the framing survives an unknown
      // type byte: discard the payload, reject loudly, keep the connection.
      payload.resize(static_cast<std::size_t>(header.payload_bytes));
      if (header.payload_bytes > 0 &&
          !read_exact(stream, payload.data(), payload.size())) {
        counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      counters_.bytes_in.fetch_add(header.payload_bytes,
                                   std::memory_order_relaxed);
      counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      if (!enqueue(pipeline, error_slot(0, head_err))) break;
      continue;
    }
    if (head_err != WireError::kNone) {
      counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      // Other header errors poison the stream position: queue a final
      // best-effort error frame and stop reading; the writer drains it.
      enqueue(pipeline, error_slot(0, head_err));
      break;
    }

    payload.resize(static_cast<std::size_t>(header.payload_bytes));
    if (header.payload_bytes > 0 &&
        !read_exact(stream, payload.data(), payload.size())) {
      counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    counters_.bytes_in.fetch_add(header.payload_bytes,
                                 std::memory_order_relaxed);

    if (!handle_frame(pipeline, header, payload)) break;
    if (stopping_.load(std::memory_order_acquire)) break;  // drained
  }

  // No more slots will arrive; the writer flushes what is queued and exits.
  {
    MutexLock lock(pipeline.mutex);
    pipeline.reader_done = true;
  }
  pipeline.slot_ready.notify_all();
  writer.join();
}

void NetServer::writer_loop(ByteStream& stream, Pipeline& pipeline) {
  for (;;) {
    ResponseSlot slot;
    {
      UniqueMutexLock lock(pipeline.mutex);
      while (pipeline.queue.empty() && !pipeline.reader_done)
        pipeline.slot_ready.wait(lock);
      if (pipeline.queue.empty()) return;  // reader done and fully drained
      slot = std::move(pipeline.queue.front());
      pipeline.queue.pop_front();
    }
    pipeline.slot_free.notify_one();

    if (slot.is_eval) {
      // Resolve this slot's futures now, in queue position: responses
      // leave in request order no matter how batches were scheduled.
      EvalResponse resp;
      resp.id = slot.id;
      resp.results.reserve(slot.futures.size());
      for (auto& f : slot.futures) {
        const serve::EvalResult r = f.get();
        resp.results.push_back({static_cast<std::uint8_t>(r.status), r.value});
      }
      slot.frame = encode_eval_response(resp);
    }
    if (!send(stream, slot.frame, slot.is_error)) {
      // The stream is dead. Unblock the reader and drop everything still
      // queued — the futures inside resolve into discarded promises.
      {
        MutexLock lock(pipeline.mutex);
        pipeline.aborted = true;
        pipeline.queue.clear();
        pipeline.inflight = 0;
      }
      pipeline.slot_free.notify_all();
      stream.shutdown();  // wake a reader blocked mid-read
      return;
    }
    {
      MutexLock lock(pipeline.mutex);
      --pipeline.inflight;
    }
  }
}

bool NetServer::enqueue(Pipeline& pipeline, ResponseSlot slot) {
  std::size_t outstanding;
  {
    UniqueMutexLock lock(pipeline.mutex);
    while (!pipeline.aborted &&
           pipeline.queue.size() >= opts_.max_in_flight)
      pipeline.slot_free.wait(lock);
    if (pipeline.aborted) return false;
    outstanding = pipeline.inflight;
    ++pipeline.inflight;
    pipeline.queue.push_back(std::move(slot));
  }
  pipeline.slot_ready.notify_one();
  if (outstanding > 0)
    counters_.pipelined_frames.fetch_add(1, std::memory_order_relaxed);
  serve::raise_max(counters_.frames_in_flight_peak, outstanding + 1);
  return true;
}

NetServer::ResponseSlot NetServer::error_slot(std::uint64_t id,
                                              WireError code) {
  ErrorFrame err;
  err.id = id;
  err.code = static_cast<std::uint32_t>(code);
  err.message = to_string(code);
  ResponseSlot slot;
  slot.is_error = true;
  slot.id = id;
  slot.frame = encode_error(err);
  return slot;
}

bool NetServer::handle_frame(Pipeline& pipeline, const FrameHeader& header,
                             std::span<const std::uint8_t> payload) {
  switch (header.type) {
    case MsgType::kEvalRequest: {
      EvalRequest req;
      const WireError err = decode_eval_request(payload, req, opts_.limits);
      if (err != WireError::kNone) {
        counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
        if (!enqueue(pipeline, error_slot(req.id, err))) return false;
        return !closes_connection(err);
      }
      counters_.frames_decoded.fetch_add(1, std::memory_order_relaxed);
      counters_.eval_requests.fetch_add(1, std::memory_order_relaxed);
      counters_.eval_points.fetch_add(req.points.size(),
                                      std::memory_order_relaxed);

      // Deadline propagation: the relative wire budget becomes an absolute
      // service deadline now, at decode time. A non-positive budget is
      // already expired and exercises admission shedding deterministically.
      auto deadline = serve::EvalService::kNoDeadline;
      if (req.deadline_us != 0)
        deadline = serve::EvalService::Clock::now() +
                   std::chrono::microseconds(req.deadline_us);

      // Submit now, respond later: the reader moves on to the next frame
      // while the writer waits for these futures in queue order.
      ResponseSlot slot;
      slot.is_eval = true;
      slot.id = req.id;
      slot.futures.reserve(req.points.size());
      for (CoordVector& p : req.points)
        slot.futures.push_back(
            service_.submit(req.grid, std::move(p), deadline));
      return enqueue(pipeline, std::move(slot));
    }

    case MsgType::kListRequest: {
      if (!payload.empty()) {
        counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
        return enqueue(pipeline, error_slot(0, WireError::kBadPayload));
      }
      counters_.frames_decoded.fetch_add(1, std::memory_order_relaxed);
      counters_.list_requests.fetch_add(1, std::memory_order_relaxed);
      ListResponse resp;
      for (const std::string& name : registry_.names()) {
        const auto entry = registry_.find(name);
        if (entry == nullptr) continue;  // removed between names() and find()
        GridInfo info;
        info.name = name;
        info.dim = entry->storage.dim();
        info.level = entry->storage.grid().level();
        info.points = entry->storage.size();
        info.memory_bytes = entry->memory_bytes();
        resp.grids.push_back(std::move(info));
      }
      ResponseSlot slot;
      slot.frame = encode_list_response(resp);
      return enqueue(pipeline, std::move(slot));
    }

    case MsgType::kStatsRequest: {
      if (!payload.empty()) {
        counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
        return enqueue(pipeline, error_slot(0, WireError::kBadPayload));
      }
      counters_.frames_decoded.fetch_add(1, std::memory_order_relaxed);
      counters_.stats_requests.fetch_add(1, std::memory_order_relaxed);
      ResponseSlot slot;
      slot.frame = encode_stats_response(WireStats{service_.stats(), stats()});
      return enqueue(pipeline, std::move(slot));
    }

    default:
      // Well-formed header carrying a message only a client should send
      // (responses, errors): framing is intact, reject and continue.
      counters_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      return enqueue(pipeline, error_slot(0, WireError::kBadType));
  }
}

bool NetServer::send(ByteStream& stream,
                     const std::vector<std::uint8_t>& frame, bool is_error) {
  // Account before the bytes can reach the peer, so a client that read
  // this frame and then fetches stats sees it counted; undo on failure.
  counters_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  if (is_error)
    counters_.error_frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (stream.write_all(frame.data(), frame.size())) return true;
  counters_.bytes_out.fetch_sub(frame.size(), std::memory_order_relaxed);
  if (is_error)
    counters_.error_frames_sent.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

}  // namespace csg::net
