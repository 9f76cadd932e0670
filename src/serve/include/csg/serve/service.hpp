// EvalService: asynchronous batched evaluation over a GridRegistry — the
// serving layer's core loop.
//
// A request is a frame of points against one grid: submit_batch() queues
// the whole frame as one item and returns one future holding a result per
// point, in submission order; submit() is a frame of one. Workers coalesce
// queued frames *per grid* into batches and run each batch through the
// plan-based blocked evaluation (Sec. 4.3 blocking, evaluate_blocked_into
// on the entry's grid plan, 64-point blocks) on the worker's own thread.
//
// The service is sharded by grid: shard_hash(name) % shard_count picks a
// shard, and every shard owns its own bounded queue, worker set, batch
// coalescer, overflow policy, and deadline shedding. Independent grids
// therefore make progress independently — a hot grid saturates only its
// shard's queue while the other shards keep serving (the same argument the
// paper's compact layout makes for component grids at the data-structure
// level). All requests for one grid land in one shard, so batching still
// coalesces per grid and single-grid accounting stays exact. The
// lifecycle discipline a production server needs is explicit:
//
//  * bounded submission queues — at most queue_capacity *points* wait per
//    shard; overflow either rejects the points that do not fit (kReject,
//    load shedding) or blocks the producer until the whole frame fits
//    (kBlock, backpressure; a frame larger than the capacity is admitted
//    once the queue is empty),
//  * work-conserving batching — a worker takes whole frames of the oldest
//    frame's grid, oldest first, and evaluates at once; it never waits for
//    stragglers, so a batch holds whatever queued while the worker was busy,
//  * per-request deadlines — a frame whose deadline has already expired
//    when it is submitted is shed at admission (kTimeout, never queued,
//    counted in ServiceStats::shed_at_admission); one whose deadline passes
//    while queued completes with Status::kTimeout when its batch forms and
//    is never evaluated; a blocked producer gives up with kTimeout when its
//    deadline expires before queue space frees,
//  * graceful shutdown — stop(drain=true) (and the destructor) lets
//    workers drain every queued request through normal batches;
//    stop(drain=false) fails pending requests with Status::kCancelled.
//
// Every point of a frame gets the status and counter outcome it would get
// if the frame's points were submitted one by one, in order.
//
// Results are bit-identical to sequential evaluate(): batching only groups
// points, and the blocked kernel sums subspaces in enumeration order per
// point regardless of batch shape.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "csg/core/thread_annotations.hpp"
#include "csg/serve/counters.hpp"
#include "csg/serve/grid_registry.hpp"

namespace csg::serve {

enum class Status : std::uint8_t {
  kOk = 0,
  kInvalid,    ///< malformed request (wrong dimension, coordinate not in [0,1])
  kNotFound,   ///< no grid registered under the requested name
  kRejected,   ///< bounded queue full under kReject, or service stopped
  kTimeout,    ///< deadline expired before the request could be evaluated
  kCancelled,  ///< dropped by stop(drain=false)
};

const char* to_string(Status s);

struct EvalResult {
  Status status = Status::kOk;
  real_t value = 0;
};

/// What submit() does when the bounded queue is full.
enum class OverflowPolicy : std::uint8_t {
  kReject,  ///< fail fast with Status::kRejected (load shedding)
  kBlock,   ///< block the producer until space frees (backpressure)
};

/// Stable grid-name → shard mapping: FNV-1a over the name bytes, 64-bit
/// throughout so the mapping is identical across builds and platforms.
/// Public so tests and benchmarks can predict (or construct) placements.
std::uint64_t shard_hash(std::string_view name);

struct ServiceOptions {
  /// Number of independent shards (queue + worker set each). Zero derives
  /// the count from std::thread::hardware_concurrency (clamped to [1, 8]).
  std::size_t shard_count = 0;
  /// Upper bound on queued (not yet batched) points, per shard.
  std::size_t queue_capacity = 1024;
  /// Batch formation stops before a batch would exceed this many points;
  /// one request is never split, so a larger frame forms a batch alone.
  std::size_t max_batch_points = 256;
  /// Worker threads forming and running batches, per shard.
  int workers = 2;
  OverflowPolicy overflow = OverflowPolicy::kReject;
  /// Applied when submit() is called without an explicit deadline;
  /// zero means "no deadline".
  std::chrono::milliseconds default_deadline{0};
  /// When true the constructor does not launch workers; requests queue up
  /// (or reject once the queue fills) until start(). Deterministic batch
  /// accounting for tests and benchmarks.
  bool start_paused = false;
};

class EvalService {
 public:
  using Clock = std::chrono::steady_clock;
  /// No deadline: the request waits as long as the queue does.
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// The registry must outlive the service. Workers launch immediately
  /// unless opts.start_paused.
  explicit EvalService(const GridRegistry& registry, ServiceOptions opts = {});

  /// Drains gracefully (stop(true)).
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Queue one frame of point queries against grid `name` as one request.
  /// Always returns a future that will hold one result per point, in
  /// submission order; failures (unknown grid, malformed point, rejection,
  /// timeout) are delivered through Status, never exceptions.
  std::future<std::vector<EvalResult>> submit_batch(
      const std::string& name, std::vector<CoordVector> points,
      Clock::time_point deadline);

  /// A frame of one point. The future is deferred: get() reads the frame's
  /// only result (wait_for() reports future_status::deferred).
  std::future<EvalResult> submit(const std::string& name, CoordVector point);
  std::future<EvalResult> submit(const std::string& name, CoordVector point,
                                 Clock::time_point deadline);

  /// Launch the workers (no-op when already running or after stop()).
  void start();

  /// Terminal: drain or cancel queued requests, join the workers. After
  /// stop() every submit() is rejected. Idempotent.
  void stop(bool drain = true);

  bool running() const;

  /// Points queued and not yet claimed by a batch, summed over shards.
  std::size_t pending() const;

  ServiceStats stats() const;

  const ServiceOptions& options() const { return opts_; }

  /// Number of shards this instance runs (>= 1, fixed at construction).
  std::size_t shard_count() const { return shards_.size(); }

  /// The shard index grid `name` maps to: shard_hash(name) % shard_count().
  std::size_t shard_of(std::string_view name) const {
    return static_cast<std::size_t>(shard_hash(name) %
                                    static_cast<std::uint64_t>(shards_.size()));
  }

 private:
  /// One submitted frame.
  struct Request {
    std::shared_ptr<const GridEntry> entry;
    std::vector<CoordVector> points;
    /// One slot per point, in submission order. A queued point holds kOk
    /// until its batch runs; every other slot already has its final status.
    std::vector<EvalResult> results;
    std::size_t queued = 0;  ///< slots still holding kOk
    Clock::time_point deadline = kNoDeadline;
    std::promise<std::vector<EvalResult>> promise;
  };

  /// A worker's batch and its reusable gather and output buffers.
  struct Batch {
    std::vector<Request> requests;
    std::vector<CoordVector> points;
    std::vector<real_t> values;
  };

  /// One independent slice of the service: its own bounded queue, worker
  /// set, lifecycle flags, and counters. Fixed in number at construction,
  /// so the shards_ vector itself needs no lock.
  struct Shard {
    mutable Mutex mutex;
    CondVar not_empty;
    CondVar not_full;
    std::deque<Request> queue CSG_GUARDED_BY(mutex);
    /// Sum of `queued` over the queue: what queue_capacity bounds.
    std::size_t queued_points CSG_GUARDED_BY(mutex) = 0;
    /// Workers exit once the queue drains.
    bool stopping CSG_GUARDED_BY(mutex) = false;
    /// Terminal: submits reject, start() is a no-op.
    bool stopped CSG_GUARDED_BY(mutex) = false;
    std::vector<std::thread> workers CSG_GUARDED_BY(mutex);

    ShardCounters<LiveCounter> counters;
  };

  void worker_loop(Shard& shard);
  /// Move whole requests of the oldest request's grid, oldest first, into
  /// `batch`, stopping before max_batch_points would be exceeded (a lone
  /// larger request is taken whole).
  void take_batch_locked(Shard& shard, std::vector<Request>& batch)
      CSG_REQUIRES(shard.mutex);
  /// True once a producer blocked on `points` may stop waiting: the frame
  /// fits (or the queue is empty), or the service is shutting down.
  bool submit_unblocked(const Shard& shard, std::size_t points) const
      CSG_REQUIRES(shard.mutex) {
    return shard.stopping || shard.stopped || shard.queued_points == 0 ||
           shard.queued_points + points <= opts_.queue_capacity;
  }
  /// Time out expired requests, gather the rest's queued points, evaluate
  /// them in one call and deliver every request of the batch.
  void run_batch(Batch& batch);
  /// Give every still-queued point of `req` final status `status` and
  /// deliver the frame.
  static void finish(Request& req, Status status);

  const GridRegistry& registry_;
  const ServiceOptions opts_;

  /// Immutable after construction (the Shard objects inside are not).
  std::vector<std::unique_ptr<Shard>> shards_;

  ServiceCounters<LiveCounter> counters_;
};

}  // namespace csg::serve
