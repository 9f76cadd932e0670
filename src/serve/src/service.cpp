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

std::future<EvalResult> EvalService::immediate(Status status) {
  std::promise<EvalResult> p;
  p.set_value({status, 0});
  return p.get_future();
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
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const GridEntry> entry = registry_.find(name);
  if (entry == nullptr) {
    counters_.not_found.fetch_add(1, std::memory_order_relaxed);
    return immediate(Status::kNotFound);
  }
  if (!valid_point(*entry, point)) {
    counters_.invalid.fetch_add(1, std::memory_order_relaxed);
    return immediate(Status::kInvalid);
  }
  // Admission control: a request that is already past its deadline can only
  // ever complete as kTimeout, so shed it here instead of letting it occupy
  // queue capacity until a batch forms. shed_at_admission is a subset of
  // timed_out — the total deadline-failure count is unchanged.
  if (deadline != kNoDeadline && deadline <= Clock::now()) {
    counters_.shed_at_admission.fetch_add(1, std::memory_order_relaxed);
    counters_.timed_out.fetch_add(1, std::memory_order_relaxed);
    return immediate(Status::kTimeout);
  }

  Request req;
  req.entry = std::move(entry);
  req.point = std::move(point);
  req.deadline = deadline;
  std::future<EvalResult> future = req.promise.get_future();

  Shard& shard = *shards_[shard_of(name)];
  shard.counters.submits.fetch_add(1, std::memory_order_relaxed);
  UniqueMutexLock lock(shard.mutex);
  if (shard.stopped || shard.stopping) {
    lock.unlock();
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    shard.counters.rejections.fetch_add(1, std::memory_order_relaxed);
    req.promise.set_value({Status::kRejected, 0});
    return future;
  }
  if (shard.queue.size() >= opts_.queue_capacity) {
    if (opts_.overflow == OverflowPolicy::kReject) {
      lock.unlock();
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      shard.counters.rejections.fetch_add(1, std::memory_order_relaxed);
      req.promise.set_value({Status::kRejected, 0});
      return future;
    }
    // Backpressure: hold the producer until space frees, the service
    // stops, or the request's own deadline expires while waiting. The wait
    // loops are spelled out so the guarded reads in the conditions are
    // checked against the held lock (see CondVar in thread_annotations.hpp).
    if (req.deadline == kNoDeadline) {
      while (!submit_unblocked(shard)) shard.not_full.wait(lock);
    } else {
      bool unblocked = true;
      while (!(unblocked = submit_unblocked(shard))) {
        if (shard.not_full.wait_until(lock, req.deadline) ==
            std::cv_status::timeout) {
          unblocked = submit_unblocked(shard);
          break;
        }
      }
      if (!unblocked) {
        lock.unlock();
        counters_.timed_out.fetch_add(1, std::memory_order_relaxed);
        req.promise.set_value({Status::kTimeout, 0});
        return future;
      }
    }
    if (shard.stopping || shard.stopped) {
      lock.unlock();
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      shard.counters.rejections.fetch_add(1, std::memory_order_relaxed);
      req.promise.set_value({Status::kRejected, 0});
      return future;
    }
  }
  shard.queue.push_back(std::move(req));
  const auto depth = shard.queue.size();
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
        counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
        req.promise.set_value({Status::kCancelled, 0});
      }
      shard.queue.clear();
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
        counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
        req.promise.set_value({Status::kCancelled, 0});
      }
    }
    shard.queue.clear();
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
    total += shard.queue.size();
  }
  return total;
}

ServiceStats EvalService::stats() const {
  ServiceStats s{snapshot(counters_), {}};
  s.shards.reserve(shards_.size());
  for (const auto& sp : shards_) s.shards.push_back(snapshot(sp->counters));
  return s;
}

void EvalService::collect_locked(Shard& shard, const GridEntry* entry,
                                 std::vector<Request>& batch) {
  for (auto it = shard.queue.begin();
       it != shard.queue.end() && batch.size() < opts_.max_batch_points;) {
    if (it->entry.get() == entry) {
      batch.push_back(std::move(*it));
      it = shard.queue.erase(it);
    } else {
      ++it;
    }
  }
}

void EvalService::worker_loop(Shard& shard) {
  for (;;) {
    UniqueMutexLock lock(shard.mutex);
    while (!shard.stopping && shard.queue.empty()) shard.not_empty.wait(lock);
    if (shard.queue.empty()) return;  // stopping and fully drained

    // Seed the batch with the oldest request's grid, then sweep the queue
    // for that grid's other requests.
    const GridEntry* entry = shard.queue.front().entry.get();
    std::vector<Request> batch;
    batch.reserve(std::min(opts_.max_batch_points, shard.queue.size()));
    collect_locked(shard, entry, batch);

    if (batch.size() < opts_.max_batch_points &&
        opts_.batch_window.count() > 0 && !shard.stopping) {
      // Partial batch: wait (bounded) for stragglers of the same grid.
      const auto until = Clock::now() + opts_.batch_window;
      while (batch.size() < opts_.max_batch_points && !shard.stopping) {
        if (shard.not_empty.wait_until(lock, until) ==
            std::cv_status::timeout) {
          collect_locked(shard, entry, batch);
          break;
        }
        collect_locked(shard, entry, batch);
      }
    }
    lock.unlock();
    // Space freed for blocked producers regardless of batch outcome.
    shard.not_full.notify_all();
    run_batch(std::move(batch));
  }
}

void EvalService::run_batch(std::vector<Request> batch) {
  const auto now = Clock::now();
  // Deadlines are checked once, at batch formation: an expired request is
  // completed as kTimeout and never pays for evaluation.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& req : batch) {
    if (req.deadline < now) {
      counters_.timed_out.fetch_add(1, std::memory_order_relaxed);
      req.promise.set_value({Status::kTimeout, 0});
    } else {
      live.push_back(std::move(req));
    }
  }
  if (live.empty()) return;

  const GridEntry& entry = *live.front().entry;
  std::vector<CoordVector> points;
  points.reserve(live.size());
  for (const Request& req : live) points.push_back(req.point);

  const std::span<const real_t> coeffs(entry.storage.data(),
                                       entry.storage.values().size());
  // The coalesced batch runs through the SoA batch kernel (DESIGN.md §14)
  // on this worker's thread: it transposes its blocks into a thread-local
  // PointBlock arena that outlives the batch, so steady-state serving does
  // zero per-batch point-layout allocation (bench_serve pins this with
  // PointBlock::allocation_count()).
  const std::vector<real_t> values =
      evaluate_many_blocked(*entry.plan, coeffs, points);

  // Account the batch before fulfilling any promise: a caller that joins
  // the futures and then reads stats() must see this batch counted.
  counters_.batches_formed.fetch_add(1, std::memory_order_relaxed);
  counters_.batched_points.fetch_add(live.size(), std::memory_order_relaxed);
  raise_max(counters_.max_batch, live.size());
  for (std::size_t k = 0; k < live.size(); ++k) {
    counters_.completed.fetch_add(1, std::memory_order_relaxed);
    live[k].promise.set_value({Status::kOk, values[k]});
  }
}

}  // namespace csg::serve
