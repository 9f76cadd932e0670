// EvalService: asynchronous batched evaluation over a GridRegistry — the
// serving layer's core loop.
//
// Point queries arrive one at a time (submit() returns a future); workers
// coalesce queued queries *per grid* into batches and run each batch
// through the plan-based blocked evaluation (Sec. 4.3 blocking,
// parallel::omp_evaluate_many_blocked on the entry's pinned plan).
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
//  * bounded submission queues — at most queue_capacity requests wait
//    *per shard*; overflow either rejects immediately (kReject, load
//    shedding) or blocks the producer (kBlock, backpressure),
//  * batching window — a worker that finds fewer than max_batch_points
//    queued for its grid waits up to batch_window for stragglers before
//    evaluating, trading a bounded latency bump for larger batches,
//  * per-request deadlines — a request whose deadline has already expired
//    when submit() runs is shed at admission (kTimeout, never queued,
//    counted in ServiceStats::shed_at_admission); one whose deadline passes
//    while queued completes with Status::kTimeout when its batch forms and
//    is never evaluated; a blocked producer gives up with kTimeout when its
//    deadline expires before queue space frees,
//  * graceful shutdown — stop(drain=true) (and the destructor) lets
//    workers drain every queued request through normal batches;
//    stop(drain=false) fails pending requests with Status::kCancelled.
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
  /// Upper bound on queued (not yet batched) requests, per shard.
  std::size_t queue_capacity = 1024;
  /// A batch never holds more points than this.
  std::size_t max_batch_points = 256;
  /// How long a worker waits for a partial batch to fill. Zero: batches
  /// are formed from whatever is queued at pop time.
  std::chrono::microseconds batch_window{200};
  /// Worker threads forming and running batches, per shard.
  int workers = 2;
  /// OpenMP threads inside one batch evaluation (omp_evaluate_many_blocked).
  int eval_threads = 1;
  /// Point block size of the Sec. 4.3 blocked kernel.
  std::size_t block_size = 64;
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

  /// Queue one point query against grid `name`. Always returns a future
  /// that will hold a result; failures (unknown grid, malformed point,
  /// rejection, timeout) are delivered through Status, never exceptions.
  std::future<EvalResult> submit(const std::string& name, CoordVector point);
  std::future<EvalResult> submit(const std::string& name, CoordVector point,
                                 Clock::time_point deadline);

  /// Launch the workers (no-op when already running or after stop()).
  void start();

  /// Terminal: drain or cancel queued requests, join the workers. After
  /// stop() every submit() is rejected. Idempotent.
  void stop(bool drain = true);

  bool running() const;

  /// Requests queued and not yet claimed by a batch, summed over shards.
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
  struct Request {
    std::shared_ptr<const GridEntry> entry;
    CoordVector point;
    Clock::time_point deadline = kNoDeadline;
    std::promise<EvalResult> promise;
  };

  /// One independent slice of the service: its own bounded queue, worker
  /// set, lifecycle flags, and counters. Fixed in number at construction,
  /// so the shards_ vector itself needs no lock.
  struct Shard {
    mutable Mutex mutex;
    CondVar not_empty;
    CondVar not_full;
    std::deque<Request> queue CSG_GUARDED_BY(mutex);
    /// Workers exit once the queue drains.
    bool stopping CSG_GUARDED_BY(mutex) = false;
    /// Terminal: submits reject, start() is a no-op.
    bool stopped CSG_GUARDED_BY(mutex) = false;
    std::vector<std::thread> workers CSG_GUARDED_BY(mutex);

    ShardCounters<LiveCounter> counters;
  };

  void worker_loop(Shard& shard);
  /// Move queued requests for `entry` into `batch`, up to max_batch_points
  /// total.
  void collect_locked(Shard& shard, const GridEntry* entry,
                      std::vector<Request>& batch) CSG_REQUIRES(shard.mutex);
  /// True once a blocked producer may stop waiting: space freed, or the
  /// service is shutting down.
  bool submit_unblocked(const Shard& shard) const CSG_REQUIRES(shard.mutex) {
    return shard.stopping || shard.stopped ||
           shard.queue.size() < opts_.queue_capacity;
  }
  void run_batch(std::vector<Request> batch);

  static std::future<EvalResult> immediate(Status status);

  const GridRegistry& registry_;
  const ServiceOptions opts_;

  /// Immutable after construction (the Shard objects inside are not).
  std::vector<std::unique_ptr<Shard>> shards_;

  ServiceCounters<LiveCounter> counters_;
};

}  // namespace csg::serve
