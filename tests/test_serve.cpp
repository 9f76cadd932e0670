// csg::serve — multi-grid registry + asynchronous batched evaluation
// service: correctness (results bit-identical to evaluate()), batching
// accounting, backpressure (reject and block), deadlines, graceful
// shutdown, counter reconciliation across every outcome, and the bounded
// plan cache under a many-shape serving load.
//
// Registered under the `parallel` ctest label: the service is the
// project's most concurrent component (producers, worker pool, OpenMP
// inside batches), so the TSan lane must see it.
#include "csg/serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/serve/grid_registry.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg::serve {
namespace {

CompactStorage make_grid(dim_t d, level_t n) {
  CompactStorage s(d, n);
  s.sample(workloads::parabola_product(d).f);
  hierarchize(s);
  return s;
}

/// Restore the process-global plan cache to its default shape when a test
/// that resizes or clears it exits (tests share one process).
struct PlanCacheGuard {
  ~PlanCacheGuard() {
    EvaluationPlan::shared_cache_clear();
    EvaluationPlan::shared_cache_set_capacity(
        EvaluationPlan::kDefaultSharedCacheCap);
  }
};

TEST(GridRegistry, AddFindRemove) {
  GridRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.find("temperature"), nullptr);

  reg.add("temperature", make_grid(3, 4));
  reg.add("pressure", make_grid(2, 5));
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"pressure", "temperature"}));

  const auto entry = reg.find("temperature");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "temperature");
  EXPECT_EQ(entry->storage.dim(), 3u);
  ASSERT_NE(entry->plan, nullptr);
  EXPECT_EQ(entry->plan->dim(), 3u);

  EXPECT_TRUE(reg.remove("temperature"));
  EXPECT_FALSE(reg.remove("temperature"));
  EXPECT_EQ(reg.find("temperature"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(GridRegistry, ReplaceKeepsOldEntryAliveForHolders) {
  GridRegistry reg;
  const auto old_entry = reg.add("field", make_grid(2, 3));
  reg.add("field", make_grid(2, 5));
  const auto new_entry = reg.find("field");
  ASSERT_NE(new_entry, nullptr);
  EXPECT_NE(old_entry.get(), new_entry.get());
  // The replaced entry still evaluates — in-flight batches are safe.
  EXPECT_EQ(old_entry->storage.grid().level(), 3u);
  EXPECT_EQ(evaluate(old_entry->storage, CoordVector{0.5, 0.5}),
            evaluate(old_entry->storage, CoordVector{0.5, 0.5}));
}

TEST(GridRegistry, AddRejectsNonFiniteCoefficients) {
  GridRegistry reg;
  const auto kept = reg.add("field", make_grid(2, 4));
  const auto bytes = reg.memory_bytes();
  for (const real_t bad : {std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::infinity(),
                           -std::numeric_limits<real_t>::infinity()}) {
    CompactStorage s = make_grid(2, 4);
    s[7] = bad;
    s[9] = bad;  // only the first bad index is named
    for (const std::string name : {"field", "fresh"}) {
      try {
        reg.add(name, s);
        ADD_FAILURE() << "accepted " << bad << " under '" << name << "'";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'" + name + "'"), std::string::npos) << what;
        EXPECT_NE(what.find("flat index 7"), std::string::npos) << what;
      }
    }
    // The rejected replace left the existing entry in place.
    EXPECT_EQ(reg.names(), std::vector<std::string>{"field"});
    EXPECT_EQ(reg.find("field"), kept);
    EXPECT_EQ(reg.memory_bytes(), bytes);
  }
}

TEST(GridRegistry, MemoryBytesTracksLiveEntriesOnly) {
  GridRegistry reg;
  EXPECT_EQ(reg.memory_bytes(), 0u);
  const auto a = reg.add("a", make_grid(2, 4));
  const auto a_bytes = a->memory_bytes();
  EXPECT_EQ(a_bytes, a->storage.memory_bytes() + a->plan->memory_bytes());
  EXPECT_EQ(reg.memory_bytes(), a_bytes);

  const auto b = reg.add("b", make_grid(3, 3));
  EXPECT_EQ(reg.memory_bytes(), a_bytes + b->memory_bytes());

  // Removal drops the registry's figure immediately even though this test
  // still holds the entry: reported bytes reflect live (registered) state.
  reg.remove("b");
  EXPECT_EQ(reg.memory_bytes(), a_bytes);
  reg.remove("a");
  EXPECT_EQ(reg.memory_bytes(), 0u);
}

TEST(EvalService, ResultsBitIdenticalToSequentialEvaluate) {
  GridRegistry reg;
  reg.add("f", make_grid(3, 5));
  const auto entry = reg.find("f");

  ServiceOptions opts;
  opts.workers = 2;
  opts.max_batch_points = 16;
  opts.batch_window = std::chrono::microseconds(100);
  EvalService service(reg, opts);

  const auto pts = workloads::uniform_points(3, 200, 11);
  std::vector<std::future<EvalResult>> futures;
  futures.reserve(pts.size());
  for (const CoordVector& x : pts) futures.push_back(service.submit("f", x));
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const EvalResult r = futures[p].get();
    ASSERT_EQ(r.status, Status::kOk) << p;
    EXPECT_EQ(r.value, evaluate(entry->storage, pts[p])) << p;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, pts.size());
  EXPECT_EQ(stats.batched_points, pts.size());
  EXPECT_GE(stats.batches_formed, 1u);
  EXPECT_LE(stats.max_batch, 16u);
}

TEST(EvalService, MultiGridBatchesStayPerGrid) {
  GridRegistry reg;
  reg.add("a", make_grid(2, 4));
  reg.add("b", make_grid(3, 3));
  const auto ea = reg.find("a");
  const auto eb = reg.find("b");

  ServiceOptions opts;
  opts.workers = 2;
  opts.max_batch_points = 8;
  EvalService service(reg, opts);

  const auto pa = workloads::uniform_points(2, 60, 3);
  const auto pb = workloads::uniform_points(3, 60, 4);
  std::vector<std::future<EvalResult>> fa, fb;
  for (std::size_t k = 0; k < 60; ++k) {
    fa.push_back(service.submit("a", pa[k]));
    fb.push_back(service.submit("b", pb[k]));
  }
  for (std::size_t k = 0; k < 60; ++k) {
    const EvalResult ra = fa[k].get(), rb = fb[k].get();
    ASSERT_EQ(ra.status, Status::kOk);
    ASSERT_EQ(rb.status, Status::kOk);
    EXPECT_EQ(ra.value, evaluate(ea->storage, pa[k])) << k;
    EXPECT_EQ(rb.value, evaluate(eb->storage, pb[k])) << k;
  }
}

TEST(EvalService, UnknownGridAndMalformedPointsFailFast) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));
  EvalService service(reg, {});

  EXPECT_EQ(service.submit("nope", CoordVector{0.5, 0.5}).get().status,
            Status::kNotFound);
  // Wrong dimension.
  EXPECT_EQ(service.submit("f", CoordVector{0.5}).get().status,
            Status::kInvalid);
  // Out of the unit cube.
  EXPECT_EQ(service.submit("f", CoordVector{0.5, 1.5}).get().status,
            Status::kInvalid);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.not_found, 1u);
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(EvalService, PausedStartGivesDeterministicBatchAccounting) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 4));

  ServiceOptions opts;
  opts.start_paused = true;
  opts.workers = 2;
  opts.queue_capacity = 1024;
  opts.max_batch_points = 32;
  opts.batch_window = std::chrono::microseconds(0);
  EvalService service(reg, opts);

  const auto pts = workloads::uniform_points(2, 100, 7);
  std::vector<std::future<EvalResult>> futures;
  for (const CoordVector& x : pts) futures.push_back(service.submit("f", x));
  EXPECT_EQ(service.pending(), 100u);

  service.start();
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);

  const ServiceStats stats = service.stats();
  // ceil(100 / 32) = 4 batches: every batch takes min(32, queued) points
  // under one lock hold, and nothing was submitted concurrently.
  EXPECT_EQ(stats.batches_formed, 4u);
  EXPECT_EQ(stats.batched_points, 100u);
  EXPECT_EQ(stats.max_batch, 32u);
  EXPECT_DOUBLE_EQ(stats.mean_batch(), 25.0);
}

TEST(EvalService, RejectPolicyShedsLoadBeyondQueueCapacity) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));

  ServiceOptions opts;
  opts.start_paused = true;
  opts.queue_capacity = 16;
  opts.overflow = OverflowPolicy::kReject;
  EvalService service(reg, opts);

  const auto pts = workloads::uniform_points(2, 20, 9);
  std::vector<std::future<EvalResult>> futures;
  for (const CoordVector& x : pts) futures.push_back(service.submit("f", x));

  // Exactly the queue capacity was admitted; the rest were shed.
  std::size_t rejected = 0;
  service.start();
  for (auto& f : futures) {
    const EvalResult r = f.get();
    if (r.status == Status::kRejected) ++rejected;
    else EXPECT_EQ(r.status, Status::kOk);
  }
  EXPECT_EQ(rejected, 4u);
  EXPECT_EQ(service.stats().rejected, 4u);
  EXPECT_EQ(service.stats().completed, 16u);
}

TEST(EvalService, FullShardRejectsWhileOtherShardsKeepServing) {
  // Per-grid sharding: a hot grid that overruns its shard's queue sheds
  // load without touching a cold grid whose name hashes to a different
  // shard. The FNV-1a grid-to-shard map is fixed, so the hot/cold pick is
  // stable across runs.
  GridRegistry reg;
  std::vector<std::string> names;
  for (int g = 0; g < 8; ++g) {
    std::string name = "g";  // append-style: GCC 12 -Wrestrict FP on
    name += std::to_string(g);  // literal + rvalue operator+ under HARDEN
    names.push_back(std::move(name));
    reg.add(names.back(), make_grid(2, 3));
  }

  ServiceOptions opts;
  opts.start_paused = true;
  opts.shard_count = 4;
  opts.queue_capacity = 8;  // per shard
  opts.overflow = OverflowPolicy::kReject;
  opts.batch_window = std::chrono::microseconds(0);
  EvalService service(reg, opts);
  ASSERT_EQ(service.shard_count(), 4u);

  const std::string hot = names.front();
  std::string cold;
  for (const std::string& name : names)
    if (service.shard_of(name) != service.shard_of(hot)) {
      cold = name;
      break;
    }
  ASSERT_FALSE(cold.empty());

  const auto pts = workloads::uniform_points(2, 24, 11);
  std::vector<std::future<EvalResult>> hot_futs, cold_futs;
  for (const CoordVector& x : pts) hot_futs.push_back(service.submit(hot, x));
  for (std::size_t k = 0; k < opts.queue_capacity; ++k)
    cold_futs.push_back(service.submit(cold, pts[k]));

  service.start();
  std::size_t hot_ok = 0, hot_rejected = 0;
  for (auto& f : hot_futs) {
    const EvalResult r = f.get();
    if (r.status == Status::kRejected) ++hot_rejected;
    else if (r.status == Status::kOk) ++hot_ok;
  }
  // The hot shard admitted exactly its own capacity and shed the rest...
  EXPECT_EQ(hot_ok, 8u);
  EXPECT_EQ(hot_rejected, 16u);
  // ...while the cold shard, at exactly its capacity, rejected nothing.
  for (auto& f : cold_futs) EXPECT_EQ(f.get().status, Status::kOk);

  const ServiceStats st = service.stats();
  ASSERT_EQ(st.shards.size(), 4u);
  const ServiceStats::ShardStats& hs = st.shards[service.shard_of(hot)];
  const ServiceStats::ShardStats& cs = st.shards[service.shard_of(cold)];
  EXPECT_EQ(hs.submits, 24u);
  EXPECT_EQ(hs.rejections, 16u);
  EXPECT_EQ(hs.max_queue_depth, 8u);
  EXPECT_EQ(cs.submits, 8u);
  EXPECT_EQ(cs.rejections, 0u);
  EXPECT_EQ(cs.max_queue_depth, 8u);
  EXPECT_EQ(st.rejected, 16u);
  EXPECT_EQ(st.completed, 16u);
}

TEST(EvalService, ShardHashIsStable64BitFnv1a) {
  // Grid-to-shard placement is part of observable behavior (stats index,
  // bench baselines): pin the hash function to the FNV-1a test vectors so
  // a change cannot slip in silently, and check the full 64-bit width.
  EXPECT_EQ(shard_hash(""), 14695981039346656037ull);
  EXPECT_EQ(shard_hash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(shard_hash("foobar"), 0x85944171f73967e8ull);
  EXPECT_NE(shard_hash("g0"), shard_hash("g1"));
}

TEST(EvalService, BlockPolicyAppliesBackpressureInsteadOfRejecting) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));

  ServiceOptions opts;
  opts.start_paused = true;
  opts.queue_capacity = 4;
  opts.overflow = OverflowPolicy::kBlock;
  opts.max_batch_points = 4;
  opts.batch_window = std::chrono::microseconds(0);
  EvalService service(reg, opts);

  const auto pts = workloads::uniform_points(2, 12, 5);
  std::vector<std::future<EvalResult>> futures(pts.size());
  std::atomic<std::size_t> submitted{0};
  std::thread producer([&] {
    for (std::size_t k = 0; k < pts.size(); ++k) {
      futures[k] = service.submit("f", pts[k]);
      submitted.fetch_add(1);
    }
  });
  // The producer must stall at the bounded queue until workers start.
  while (submitted.load() < opts.queue_capacity) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(submitted.load(), opts.queue_capacity);

  service.start();
  producer.join();
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_EQ(service.stats().completed, pts.size());
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(EvalService, ExpiredDeadlinesTimeOutWithoutEvaluation) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));

  ServiceOptions opts;
  opts.start_paused = true;
  EvalService service(reg, opts);

  const auto pts = workloads::uniform_points(2, 10, 13);
  const auto past = EvalService::Clock::now() - std::chrono::milliseconds(1);
  std::vector<std::future<EvalResult>> futures;
  for (const CoordVector& x : pts)
    futures.push_back(service.submit("f", x, past));

  service.start();
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kTimeout);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.timed_out, 10u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.batches_formed, 0u);  // nothing was worth evaluating
}

TEST(EvalService, AdmissionSheddingRejectsExpiredDeadlinesBeforeQueueing) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));

  ServiceOptions opts;
  opts.start_paused = true;  // queue depth is observable: nothing consumes
  EvalService service(reg, opts);

  const auto pts = workloads::uniform_points(2, 12, 17);
  const auto past = EvalService::Clock::now() - std::chrono::milliseconds(1);
  const auto future_ok =
      EvalService::Clock::now() + std::chrono::minutes(10);
  std::vector<std::future<EvalResult>> shed, queued;
  for (std::size_t k = 0; k < 7; ++k)
    shed.push_back(service.submit("f", pts[k], past));
  for (std::size_t k = 7; k < 12; ++k)
    queued.push_back(service.submit("f", pts[k], future_ok));

  // Shed requests resolved immediately (service still paused) and never
  // occupied queue capacity; live-deadline ones are waiting for workers.
  for (auto& f : shed) EXPECT_EQ(f.get().status, Status::kTimeout);
  EXPECT_EQ(service.pending(), 5u);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_at_admission, 7u);
  EXPECT_EQ(stats.timed_out, 7u);  // shedding counts in the deadline total

  service.start();
  for (auto& f : queued) EXPECT_EQ(f.get().status, Status::kOk);
  stats = service.stats();
  EXPECT_EQ(stats.shed_at_admission, 7u);  // unchanged by live requests
  EXPECT_EQ(stats.timed_out, 7u);
  EXPECT_EQ(stats.completed, 5u);
}

TEST(EvalService, DefaultDeadlineAppliesToPlainSubmits) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));

  ServiceOptions opts;
  opts.start_paused = true;
  opts.default_deadline = std::chrono::milliseconds(1);
  EvalService service(reg, opts);

  auto f = service.submit("f", CoordVector{0.5, 0.5});
  // Let the default deadline lapse while the service is paused.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.start();
  EXPECT_EQ(f.get().status, Status::kTimeout);
}

TEST(EvalService, BlockedProducerHonorsItsDeadline) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));

  ServiceOptions opts;
  opts.start_paused = true;
  opts.queue_capacity = 1;
  opts.overflow = OverflowPolicy::kBlock;
  EvalService service(reg, opts);

  auto first = service.submit("f", CoordVector{0.25, 0.25});
  std::future<EvalResult> second;
  std::thread producer([&] {
    second = service.submit(
        "f", CoordVector{0.75, 0.75},
        EvalService::Clock::now() + std::chrono::milliseconds(30));
  });
  producer.join();  // returns once the wait-for-space deadline expires
  EXPECT_EQ(second.get().status, Status::kTimeout);

  // Never-started service: stop() fails the queued request explicitly
  // rather than leaking a broken promise.
  service.stop(true);
  EXPECT_EQ(first.get().status, Status::kCancelled);
}

TEST(EvalService, GracefulStopDrainsQueuedRequests) {
  GridRegistry reg;
  reg.add("f", make_grid(3, 4));
  const auto entry = reg.find("f");

  ServiceOptions opts;
  opts.workers = 2;
  opts.max_batch_points = 8;
  EvalService service(reg, opts);

  const auto pts = workloads::uniform_points(3, 120, 23);
  std::vector<std::future<EvalResult>> futures;
  for (const CoordVector& x : pts) futures.push_back(service.submit("f", x));
  service.stop(true);

  for (std::size_t p = 0; p < pts.size(); ++p) {
    const EvalResult r = futures[p].get();
    ASSERT_EQ(r.status, Status::kOk) << p;
    EXPECT_EQ(r.value, evaluate(entry->storage, pts[p])) << p;
  }
  EXPECT_FALSE(service.running());
  // Terminal: post-stop submissions reject.
  EXPECT_EQ(service.submit("f", pts[0]).get().status, Status::kRejected);
}

TEST(EvalService, HardStopCancelsQueuedRequests) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));

  ServiceOptions opts;
  opts.start_paused = true;  // nothing consumes: all requests stay queued
  EvalService service(reg, opts);

  std::vector<std::future<EvalResult>> futures;
  for (const CoordVector& x : workloads::uniform_points(2, 25, 29))
    futures.push_back(service.submit("f", x));
  service.stop(/*drain=*/false);

  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 25u);
}

/// The quiescence identities: every submit ends in exactly one outcome
/// counter, admission sheds are a subset of the timeouts, and the shard
/// counters partition the traffic that got past admission.
void expect_reconciled(const ServiceStats& s) {
  EXPECT_EQ(s.submitted, s.completed + s.rejected + s.timed_out +
                             s.cancelled + s.not_found + s.invalid);
  EXPECT_LE(s.shed_at_admission, s.timed_out);
  std::uint64_t submits = 0, rejections = 0;
  for (const ServiceStats::ShardStats& sh : s.shards) {
    submits += sh.submits;
    rejections += sh.rejections;
  }
  EXPECT_EQ(submits,
            s.submitted - s.not_found - s.invalid - s.shed_at_admission);
  EXPECT_EQ(rejections, s.rejected);
}

TEST(EvalService, CountersReconcileAcrossEveryOutcome) {
  GridRegistry reg;
  reg.add("a", make_grid(2, 3));
  const auto pt = CoordVector{0.25, 0.75};
  const auto statuses = [](std::vector<std::future<EvalResult>>& fs) {
    std::vector<Status> out;
    for (auto& f : fs) out.push_back(f.get().status);
    return out;
  };

  // Paused, rejecting, two shards: grid "a" fills its shard's queue while
  // grid `b` lands on the other shard.
  ServiceOptions opts;
  opts.start_paused = true;
  opts.shard_count = 2;
  opts.queue_capacity = 6;
  {
    EvalService service(reg, opts);
    std::string b = "b";
    while (service.shard_of(b) == service.shard_of("a")) b += 'b';
    reg.add(b, make_grid(2, 3));

    const auto now = EvalService::Clock::now();
    std::vector<std::future<EvalResult>> not_found, invalid, shed, expiring,
        ok, full, post_stop;
    not_found.push_back(service.submit("missing", pt));
    for (int k = 0; k < 2; ++k)
      invalid.push_back(service.submit("a", CoordVector{0.5, 1.5}));
    for (int k = 0; k < 3; ++k)
      shed.push_back(
          service.submit("a", pt, now - std::chrono::milliseconds(1)));
    for (int k = 0; k < 2; ++k)  // queued, then expire before a batch forms
      expiring.push_back(service.submit(
          "a", pt, EvalService::Clock::now() + std::chrono::milliseconds(100)));
    for (int k = 0; k < 4; ++k) ok.push_back(service.submit("a", pt));
    for (int k = 0; k < 2; ++k) full.push_back(service.submit("a", pt));
    for (int k = 0; k < 3; ++k) ok.push_back(service.submit(b, pt));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    service.start();

    EXPECT_EQ(statuses(not_found), std::vector<Status>(1, Status::kNotFound));
    EXPECT_EQ(statuses(invalid), std::vector<Status>(2, Status::kInvalid));
    EXPECT_EQ(statuses(shed), std::vector<Status>(3, Status::kTimeout));
    EXPECT_EQ(statuses(expiring), std::vector<Status>(2, Status::kTimeout));
    EXPECT_EQ(statuses(ok), std::vector<Status>(7, Status::kOk));
    EXPECT_EQ(statuses(full), std::vector<Status>(2, Status::kRejected));
    service.stop(true);
    post_stop.push_back(service.submit("a", pt));
    post_stop.push_back(service.submit(b, pt));
    EXPECT_EQ(statuses(post_stop), std::vector<Status>(2, Status::kRejected));

    const ServiceStats st = service.stats();
    expect_reconciled(st);
    EXPECT_EQ(st.submitted, 19u);
    EXPECT_EQ(st.completed, 7u);
    EXPECT_EQ(st.rejected, 4u);
    EXPECT_EQ(st.timed_out, 5u);
    EXPECT_EQ(st.shed_at_admission, 3u);
    EXPECT_EQ(st.not_found, 1u);
    EXPECT_EQ(st.invalid, 2u);
    EXPECT_EQ(st.cancelled, 0u);
    EXPECT_EQ(st.shards[service.shard_of("a")].rejections, 3u);
    EXPECT_EQ(st.shards[service.shard_of(b)].rejections, 1u);
  }

  // Paused, blocking: a producer times out waiting for space, a hard stop
  // cancels the queue, and the stopped service rejects.
  opts.shard_count = 1;
  opts.queue_capacity = 2;
  opts.overflow = OverflowPolicy::kBlock;
  EvalService service(reg, opts);
  std::vector<std::future<EvalResult>> queued, blocked, post_stop;
  for (int k = 0; k < 2; ++k) queued.push_back(service.submit("a", pt));
  blocked.push_back(service.submit(
      "a", pt, EvalService::Clock::now() + std::chrono::milliseconds(20)));
  service.stop(/*drain=*/false);
  post_stop.push_back(service.submit("a", pt));
  EXPECT_EQ(statuses(queued), std::vector<Status>(2, Status::kCancelled));
  EXPECT_EQ(statuses(blocked), std::vector<Status>(1, Status::kTimeout));
  EXPECT_EQ(statuses(post_stop), std::vector<Status>(1, Status::kRejected));

  const ServiceStats st = service.stats();
  expect_reconciled(st);
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.cancelled, 2u);
  EXPECT_EQ(st.timed_out, 1u);
  EXPECT_EQ(st.shed_at_admission, 0u);
  EXPECT_EQ(st.rejected, 1u);
}

// The acceptance stress: many (d, n) shapes served concurrently while the
// process-global plan cache is capped far below the number of shapes. The
// registry pins every served plan, so evaluation never rebuilds plans per
// batch, and the cache must hold <= its cap throughout.
TEST(ServeStress, ManyShapesUnderLoadKeepPlanCacheBounded) {
  PlanCacheGuard guard;
  EvaluationPlan::shared_cache_clear();
  EvaluationPlan::shared_cache_set_capacity(4);

  GridRegistry reg;
  struct Shape {
    std::string name;
    dim_t d;
    level_t n;
  };
  std::vector<Shape> shapes;
  for (dim_t d = 1; d <= 4; ++d)
    for (level_t n = 3; n <= 5; ++n) {
      // Built with += rather than operator+ chains: GCC 12's -Wrestrict
      // false-fires on the inlined literal+rvalue-string concatenation
      // (libstdc++ char_traits), which breaks the CSG_HARDEN -Werror build.
      std::string name = "g";
      name += std::to_string(d);
      name += '_';
      name += std::to_string(n);
      shapes.push_back({name, d, n});
    }
  for (const Shape& s : shapes) reg.add(s.name, make_grid(s.d, s.n));
  ASSERT_EQ(reg.size(), shapes.size());
  ASSERT_GT(shapes.size(), EvaluationPlan::shared_cache_stats().capacity);

  ServiceOptions opts;
  opts.workers = 3;
  opts.eval_threads = 2;
  opts.queue_capacity = 4096;
  opts.max_batch_points = 24;
  opts.batch_window = std::chrono::microseconds(50);
  EvalService service(reg, opts);

  constexpr std::size_t kPerProducer = 120;
  std::vector<std::thread> producers;
  std::atomic<std::size_t> mismatches{0};
  for (unsigned p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = 0; k < kPerProducer; ++k) {
        const Shape& s = shapes[(p * 31 + k) % shapes.size()];
        const auto pts =
            workloads::uniform_points(s.d, 1, 1000 * p + k);
        auto future = service.submit(s.name, pts[0]);
        const EvalResult r = future.get();
        const auto entry = reg.find(s.name);
        // Verify against the pinned plan directly — going through
        // evaluate() would touch the shared cache and perturb the stats
        // this test pins below.
        const std::span<const real_t> coeffs(entry->storage.data(),
                                             entry->storage.values().size());
        if (r.status != Status::kOk ||
            r.value != evaluate_span(*entry->plan, coeffs, pts[0]))
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.stop(true);

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service.stats().completed, 4 * kPerProducer);

  const auto cache = EvaluationPlan::shared_cache_stats();
  EXPECT_LE(cache.size, cache.capacity);
  EXPECT_EQ(cache.capacity, 4u);
  // Every registered shape built its plan once; the overflow was evicted.
  EXPECT_GE(cache.evictions, shapes.size() - cache.capacity);
  // Pinned plans stayed alive regardless of eviction: no rebuild happened
  // during serving, so misses stay at the registration count.
  EXPECT_EQ(cache.misses, shapes.size());
}

// Concurrent first-touch of one fresh shape: all callers get the same
// plan instance and the cache holds a single entry for the key (the
// build-outside-lock race resolves to the first insert).
TEST(ServeStress, ConcurrentSharedPlanFetchYieldsOneInstance) {
  PlanCacheGuard guard;
  EvaluationPlan::shared_cache_clear();

  const RegularSparseGrid grid(6, 6);
  constexpr unsigned kThreads = 8;
  std::vector<std::shared_ptr<const EvaluationPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { plans[t] = EvaluationPlan::shared(grid); });
  for (std::thread& t : threads) t.join();

  for (unsigned t = 1; t < kThreads; ++t)
    EXPECT_EQ(plans[t].get(), plans[0].get());
  const auto stats = EvaluationPlan::shared_cache_stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.misses + stats.hits, kThreads);
}

}  // namespace
}  // namespace csg::serve
