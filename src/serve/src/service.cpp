#include "csg/serve/service.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "csg/core/evaluate.hpp"

namespace csg::serve {

namespace {

bool valid_point(const GridEntry& entry, const CoordVector& point) {
  if (point.size() != entry.storage.dim()) return false;
  for (dim_t t = 0; t < point.size(); ++t)
    if (!(point[t] >= 0 && point[t] <= 1)) return false;  // also rejects NaN
  return true;
}

/// Points per SoA block inside a batch (Sec. 4.3 blocking).
constexpr std::size_t kBlockPoints = 64;

std::size_t default_shard_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 8);
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kInvalid:
      return "invalid";
    case Status::kNotFound:
      return "not_found";
    case Status::kRejected:
      return "rejected";
    case Status::kTimeout:
      return "timeout";
    case Status::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::uint64_t shard_hash(std::string_view name) {
  // FNV-1a, 64-bit end to end: the offset basis and prime are the
  // standard constants, and the accumulator never narrows, so the same
  // name picks the same shard on every platform.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

EvalService::EvalService(const GridRegistry& registry, ServiceOptions opts)
    : registry_(registry), opts_(opts) {
  CSG_EXPECTS(opts_.queue_capacity >= 1);
  CSG_EXPECTS(opts_.max_batch_points >= 1);
  CSG_EXPECTS(opts_.workers >= 1);
  const std::size_t count =
      opts_.shard_count > 0 ? opts_.shard_count : default_shard_count();
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s)
    shards_.push_back(std::make_unique<Shard>());
  if (!opts_.start_paused) start();
}

EvalService::~EvalService() { stop(true); }

void EvalService::finish(Request& req, Status status) {
  if (status != Status::kOk)
    for (EvalResult& r : req.results)
      if (r.status == Status::kOk) r.status = status;
  req.queued = 0;
  req.promise.set_value(std::move(req.results));
}

std::future<EvalResult> EvalService::submit(const std::string& name,
                                            CoordVector point) {
  const auto deadline =
      opts_.default_deadline.count() > 0
          ? Clock::now() + opts_.default_deadline
          : kNoDeadline;
  return submit(name, std::move(point), deadline);
}

std::future<EvalResult> EvalService::submit(const std::string& name,
                                            CoordVector point,
                                            Clock::time_point deadline) {
  std::vector<CoordVector> frame;
  frame.push_back(std::move(point));
  return std::async(
      std::launch::deferred,
      [results = submit_batch(name, std::move(frame), deadline)]() mutable {
        return results.get().front();
      });
}

std::future<std::vector<EvalResult>> EvalService::submit_batch(
    const std::string& name, std::vector<CoordVector> points,
    Clock::time_point deadline) {
  const auto count = [](LiveCounter& c, std::size_t n) {
    c.fetch_add(n, std::memory_order_relaxed);
  };
  Request req;
  req.results.assign(points.size(), EvalResult{});
  req.queued = points.size();
  req.deadline = deadline;
  std::future<std::vector<EvalResult>> future = req.promise.get_future();
  count(counters_.submitted, req.queued);

  std::shared_ptr<const GridEntry> entry = registry_.find(name);
  if (entry == nullptr) {
    count(counters_.not_found, req.queued);
    finish(req, Status::kNotFound);
    return future;
  }
  for (std::size_t k = 0; k < points.size(); ++k)
    if (!valid_point(*entry, points[k])) {
      req.results[k].status = Status::kInvalid;
      --req.queued;
    }
  count(counters_.invalid, points.size() - req.queued);
  if (req.queued == 0) {
    finish(req, Status::kOk);
    return future;
  }
  // Admission control: a request that is already past its deadline can only
  // ever complete as kTimeout, so shed it here instead of letting it occupy
  // queue capacity until a batch forms. shed_at_admission is a subset of
  // timed_out — the total deadline-failure count is unchanged.
  if (deadline != kNoDeadline && deadline <= Clock::now()) {
    count(counters_.shed_at_admission, req.queued);
    count(counters_.timed_out, req.queued);
    finish(req, Status::kTimeout);
    return future;
  }
  req.entry = std::move(entry);
  req.points = std::move(points);

  Shard& shard = *shards_[shard_of(name)];
  count(shard.counters.submits, req.queued);
  const auto reject = [&](std::size_t n) {
    count(counters_.rejected, n);
    count(shard.counters.rejections, n);
  };
  UniqueMutexLock lock(shard.mutex);
  if (opts_.overflow == OverflowPolicy::kBlock &&
      !submit_unblocked(shard, req.queued)) {
    // Backpressure: hold the producer until the frame fits, the service
    // stops, or the request's own deadline expires while waiting. The wait
    // loops are spelled out so the guarded reads in the conditions are
    // checked against the held lock (see CondVar in thread_annotations.hpp).
    bool unblocked = true;
    if (req.deadline == kNoDeadline) {
      while (!submit_unblocked(shard, req.queued)) shard.not_full.wait(lock);
    } else {
      while (!(unblocked = submit_unblocked(shard, req.queued))) {
        if (shard.not_full.wait_until(lock, req.deadline) ==
            std::cv_status::timeout) {
          unblocked = submit_unblocked(shard, req.queued);
          break;
        }
      }
    }
    if (!unblocked) {
      lock.unlock();
      count(counters_.timed_out, req.queued);
      finish(req, Status::kTimeout);
      return future;
    }
  }
  if (shard.stopped || shard.stopping) {
    lock.unlock();
    reject(req.queued);
    finish(req, Status::kRejected);
    return future;
  }
  if (opts_.overflow == OverflowPolicy::kReject &&
      shard.queued_points + req.queued > opts_.queue_capacity) {
    // Load shedding per point: the frame's first `room` queued points keep
    // their place, the rest are rejected.
    const std::size_t room = opts_.queue_capacity - shard.queued_points;
    std::size_t kept = 0;
    for (EvalResult& r : req.results)
      if (r.status == Status::kOk && kept++ >= room)
        r.status = Status::kRejected;
    reject(req.queued - room);
    req.queued = room;
    if (req.queued == 0) {
      lock.unlock();
      finish(req, Status::kOk);
      return future;
    }
  }
  shard.queued_points += req.queued;
  const std::size_t depth = shard.queued_points;
  shard.queue.push_back(std::move(req));
  lock.unlock();
  raise_max(shard.counters.max_queue_depth, depth);
  shard.not_empty.notify_one();
  return future;
}

void EvalService::start() {
  for (const auto& sp : shards_) {
    Shard& shard = *sp;
    MutexLock lock(shard.mutex);
    if (shard.stopped || !shard.workers.empty()) continue;
    shard.workers.reserve(static_cast<std::size_t>(opts_.workers));
    for (int w = 0; w < opts_.workers; ++w)
      shard.workers.emplace_back([this, &shard] { worker_loop(shard); });
  }
}

void EvalService::stop(bool drain) {
  // Pass 1: flip every shard to stopping (cancelling queued work when not
  // draining) and collect the worker threads; then join them all outside
  // any lock so shards wind down in parallel.
  std::vector<std::thread> workers;
  for (const auto& sp : shards_) {
    Shard& shard = *sp;
    MutexLock lock(shard.mutex);
    if (shard.stopped) continue;
    if (!drain) {
      // Fail everything still queued; nothing new can arrive once
      // stopping is visible.
      for (Request& req : shard.queue) {
        counters_.cancelled.fetch_add(req.queued, std::memory_order_relaxed);
        finish(req, Status::kCancelled);
      }
      shard.queue.clear();
      shard.queued_points = 0;
    }
    shard.stopping = true;
    for (std::thread& t : shard.workers) workers.push_back(std::move(t));
    shard.workers.clear();
  }
  for (const auto& sp : shards_) {
    sp->not_empty.notify_all();
    sp->not_full.notify_all();
  }
  for (std::thread& t : workers) t.join();
  // Pass 2: a paused service that was never started drains here — without
  // workers the queued requests would otherwise leak as broken promises.
  for (const auto& sp : shards_) {
    Shard& shard = *sp;
    MutexLock lock(shard.mutex);
    if (shard.stopped) continue;
    for (Request& req : shard.queue) {
      if (drain) {
        counters_.cancelled.fetch_add(req.queued, std::memory_order_relaxed);
        finish(req, Status::kCancelled);
      }
    }
    shard.queue.clear();
    shard.queued_points = 0;
    shard.stopping = false;
    shard.stopped = true;
  }
}

bool EvalService::running() const {
  for (const auto& sp : shards_) {
    const Shard& shard = *sp;
    MutexLock lock(shard.mutex);
    if (!shard.workers.empty() && !shard.stopped) return true;
  }
  return false;
}

std::size_t EvalService::pending() const {
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    const Shard& shard = *sp;
    MutexLock lock(shard.mutex);
    total += shard.queued_points;
  }
  return total;
}

ServiceStats EvalService::stats() const {
  ServiceStats s{snapshot(counters_), {}};
  s.shards.reserve(shards_.size());
  for (const auto& sp : shards_) s.shards.push_back(snapshot(sp->counters));
  return s;
}

void EvalService::take_batch_locked(Shard& shard,
                                    std::vector<Request>& batch) {
  // One pass: requests of the front request's grid move into the batch and
  // every other request slides down over the gaps they leave, so the queue
  // keeps its order and [keep, it) ends up holding only moved-from slots.
  const GridEntry* entry = shard.queue.front().entry.get();
  std::size_t points = 0;
  auto keep = shard.queue.begin();
  auto it = keep;
  for (; it != shard.queue.end(); ++it) {
    if (it->entry.get() != entry) {
      if (keep != it) *keep = std::move(*it);
      ++keep;
      continue;
    }
    if (points > 0 && points + it->queued > opts_.max_batch_points) break;
    points += it->queued;
    batch.push_back(std::move(*it));
  }
  shard.queue.erase(keep, it);
  shard.queued_points -= points;
}

void EvalService::worker_loop(Shard& shard) {
  Batch batch;  // reused: steady-state batches allocate no buffers
  for (;;) {
    {
      UniqueMutexLock lock(shard.mutex);
      while (!shard.stopping && shard.queue.empty())
        shard.not_empty.wait(lock);
      if (shard.queue.empty()) return;  // stopping and fully drained
      take_batch_locked(shard, batch.requests);
    }
    // Space freed for blocked producers regardless of batch outcome.
    shard.not_full.notify_all();
    run_batch(batch);
  }
}

void EvalService::run_batch(Batch& batch) {
  const auto now = Clock::now();
  // Deadlines are checked once, at batch formation: an expired request is
  // completed as kTimeout and never pays for evaluation. The others' queued
  // points move into the gather buffer in request order.
  batch.points.clear();
  for (Request& req : batch.requests) {
    if (req.deadline < now) {
      counters_.timed_out.fetch_add(req.queued, std::memory_order_relaxed);
      finish(req, Status::kTimeout);
      continue;
    }
    for (std::size_t k = 0; k < req.results.size(); ++k)
      if (req.results[k].status == Status::kOk)
        batch.points.push_back(std::move(req.points[k]));
  }
  const std::size_t live = batch.points.size();
  if (live > 0) {
    const GridEntry& entry = *batch.requests.front().entry;
    const std::span<const real_t> coeffs(entry.storage.data(),
                                         entry.storage.values().size());
    // The batch runs through the SoA batch kernel (DESIGN.md §14) on this
    // worker's thread: it transposes its blocks into a thread-local
    // PointBlock arena that outlives the batch, so steady-state serving
    // does zero per-batch point-layout allocation (bench_serve pins this
    // with PointBlock::allocation_count()).
    batch.values.assign(live, 0);
    evaluate_blocked_into(entry.storage.grid().plan(), coeffs, batch.points,
                          kBlockPoints, batch.values);

    // Account the batch before fulfilling any promise: a caller that joins
    // the futures and then reads stats() must see this batch counted.
    counters_.batches_formed.fetch_add(1, std::memory_order_relaxed);
    counters_.batched_points.fetch_add(live, std::memory_order_relaxed);
    counters_.completed.fetch_add(live, std::memory_order_relaxed);
    raise_max(counters_.max_batch, live);
  }
  std::size_t at = 0;
  for (Request& req : batch.requests) {
    if (req.queued == 0) continue;  // timed out above
    for (EvalResult& r : req.results)
      if (r.status == Status::kOk) r.value = batch.values[at++];
    finish(req, Status::kOk);
  }
  batch.requests.clear();
}

}  // namespace csg::serve
