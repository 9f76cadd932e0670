// NetServer: the network front of serve::EvalService.
//
// One thread accepts connections from a Listener (TCP or loopback); each
// connection gets a reader thread (read one frame, decode, dispatch) and a
// writer thread draining a bounded in-order response queue. A connection
// may have up to max_in_flight frames outstanding: the reader keeps
// decoding and submitting while earlier responses are still being
// evaluated or written, so one slow batch no longer stalls the requests
// queued behind it on the same connection. Each eval frame is submitted to
// the service as one request (EvalService::submit_batch) with one future.
// Responses are written strictly in request order — the reader appends
// response slots FIFO and the single writer pops them FIFO, waiting on each
// slot's future in turn. Once max_in_flight slots are pending the reader
// blocks, so a slow client still backpressures only its own connection (the
// transport's bounded buffers push back on the writer).
//
// Malformed input never crashes the server; it is classified by the codec:
//
//  * header-level corruption (bad magic / endianness / real width / version
//    / reserved byte / oversized length) — the stream position can no
//    longer be trusted, so the server sends a best-effort error frame and
//    closes the connection;
//  * payload-level corruption (unknown type, structural decode failure,
//    oversized batch) — the length-prefixed framing is still intact, so the
//    server answers with an error frame and keeps the connection;
//  * a stream that ends mid-frame counts as truncated and closes.
//
// Deadlines propagate: an eval request's relative budget becomes an
// absolute serve::EvalService deadline at decode time, so expired work is
// shed by the service (at admission or at batch formation), never silently
// computed. stop() drains: accepting stops, every in-flight request
// completes and its response is written, then connections close.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "csg/core/thread_annotations.hpp"
#include "csg/net/protocol.hpp"
#include "csg/net/transport.hpp"
#include "csg/serve/grid_registry.hpp"
#include "csg/serve/service.hpp"

namespace csg::net {

struct NetServerOptions {
  ProtocolLimits limits;
  /// Connections beyond this are accepted, sent an error frame, and closed.
  std::size_t max_connections = 64;
  /// Frames a connection may have outstanding (decoded but response not yet
  /// written). 1 restores the strictly serial pre-pipelining discipline.
  std::size_t max_in_flight = 8;
};

class NetServer {
 public:
  /// Listener, registry and service must outlive the server. Call start()
  /// to begin accepting.
  NetServer(Listener& listener, const serve::GridRegistry& registry,
            serve::EvalService& service, NetServerOptions opts = {});

  /// Drains (stop()).
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  void start();

  /// Drain shutdown: stop accepting, let every fully received request
  /// finish and flush its response, close all connections, join. The
  /// EvalService itself is left running (the caller owns its lifecycle).
  /// Idempotent.
  void stop();

  NetServerStats stats() const;

 private:
  struct Connection {
    std::shared_ptr<ByteStream> stream;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// One queued response, in request order. Eval slots carry the frame's
  /// service future and are encoded by the writer once it resolves; every
  /// other response (list, stats, error) is pre-encoded by the reader.
  struct ResponseSlot {
    bool is_eval = false;
    bool is_error = false;
    std::uint64_t id = 0;
    std::future<std::vector<serve::EvalResult>> results;
    std::vector<std::uint8_t> frame;
  };

  /// Reader/writer handoff of one connection: a bounded FIFO of response
  /// slots. Lives on the reader's stack; the writer is joined before it
  /// goes away.
  struct Pipeline {
    Mutex mutex;
    CondVar slot_free;   ///< reader waits here when max_in_flight are pending
    CondVar slot_ready;  ///< writer waits here for work (or reader_done)
    std::deque<ResponseSlot> queue CSG_GUARDED_BY(mutex);
    /// Responses admitted but not yet written to the stream. Differs from
    /// queue.size(): a slot the writer popped stays in flight until its
    /// frame is actually sent, which is what the pipelining counters
    /// observe (and what makes them deterministic against a paused
    /// service, where nothing is ever sent).
    std::size_t inflight CSG_GUARDED_BY(mutex) = 0;
    /// No further slots will be enqueued; the writer exits once drained.
    bool reader_done CSG_GUARDED_BY(mutex) = false;
    /// A write failed: the stream is dead, stop enqueueing and drop slots.
    bool aborted CSG_GUARDED_BY(mutex) = false;
  };

  void accept_loop();
  void connection_loop(ByteStream& stream);
  void writer_loop(ByteStream& stream, Pipeline& pipeline);
  /// Queue one response slot in request order, blocking while max_in_flight
  /// slots are already pending. False when the writer aborted.
  bool enqueue(Pipeline& pipeline, ResponseSlot slot);
  /// Handle one already-read frame; false closes the connection (the
  /// writer still drains everything queued, including a final error frame).
  bool handle_frame(Pipeline& pipeline, const FrameHeader& header,
                    std::span<const std::uint8_t> payload);
  ResponseSlot error_slot(std::uint64_t id, WireError code);
  bool send(ByteStream& stream, const std::vector<std::uint8_t>& frame,
            bool is_error);
  /// Join finished connection threads (amortized in the accept loop).
  void reap_locked() CSG_REQUIRES(mutex_);

  Listener& listener_;
  const serve::GridRegistry& registry_;
  serve::EvalService& service_;
  const NetServerOptions opts_;

  Mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      CSG_GUARDED_BY(mutex_);
  std::thread accept_thread_;
  bool started_ CSG_GUARDED_BY(mutex_) = false;
  bool stopped_ CSG_GUARDED_BY(mutex_) = false;
  std::atomic<bool> stopping_{false};

  NetCounters<serve::LiveCounter> counters_;
};

}  // namespace csg::net
