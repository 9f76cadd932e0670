// csg::serve — multi-grid registry + asynchronous batched evaluation
// service: correctness (results bit-identical to evaluate()), batching
// accounting, backpressure (reject and block), deadlines, graceful
// shutdown, counter reconciliation across every outcome, and grid-owned
// plans under a many-shape serving load.
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
  EXPECT_EQ(entry->storage.grid().plan().dim(), 3u);

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
  EXPECT_EQ(a_bytes, a->storage.memory_bytes() +
                         a->storage.grid().plan().memory_bytes());
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
  const auto bad = CoordVector{0.5, 1.5};
  const auto none = EvalService::kNoDeadline;
  const auto statuses = [](std::vector<std::future<EvalResult>>& fs) {
    std::vector<Status> out;
    for (auto& f : fs) out.push_back(f.get().status);
    return out;
  };
  const auto frame_statuses = [](std::future<std::vector<EvalResult>>& f) {
    std::vector<Status> out;
    for (const EvalResult& r : f.get()) out.push_back(r.status);
    return out;
  };
  using S = Status;

  // Paused, rejecting, two shards: grid "a" fills its shard's queue while
  // grid `b` lands on the other shard. Per-point submits and frames mix.
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
    const auto past = now - std::chrono::milliseconds(1);
    std::vector<std::future<EvalResult>> not_found, invalid, shed, expiring,
        ok, full, post_stop;
    not_found.push_back(service.submit("missing", pt));
    auto f_missing = service.submit_batch("missing", {pt, pt}, none);
    for (int k = 0; k < 2; ++k) invalid.push_back(service.submit("a", bad));
    for (int k = 0; k < 3; ++k) shed.push_back(service.submit("a", pt, past));
    auto f_shed = service.submit_batch("a", {pt, bad}, past);
    for (int k = 0; k < 2; ++k)  // queued, then expire before a batch forms
      expiring.push_back(service.submit(
          "a", pt, EvalService::Clock::now() + std::chrono::milliseconds(100)));
    for (int k = 0; k < 4; ++k) ok.push_back(service.submit("a", pt));
    for (int k = 0; k < 2; ++k) full.push_back(service.submit("a", pt));
    auto f_full = service.submit_batch("a", {pt, pt}, none);
    for (int k = 0; k < 3; ++k) ok.push_back(service.submit(b, pt));
    auto f_mixed = service.submit_batch(b, {pt, bad, pt}, none);
    auto f_overflow = service.submit_batch(b, {pt, pt, pt}, none);  // 1 left
    EXPECT_EQ(service.pending(), 12u);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    service.start();

    EXPECT_EQ(statuses(not_found), std::vector<Status>(1, S::kNotFound));
    EXPECT_EQ(frame_statuses(f_missing), std::vector<Status>(2, S::kNotFound));
    EXPECT_EQ(statuses(invalid), std::vector<Status>(2, S::kInvalid));
    EXPECT_EQ(statuses(shed), std::vector<Status>(3, S::kTimeout));
    EXPECT_EQ(frame_statuses(f_shed),
              (std::vector<Status>{S::kTimeout, S::kInvalid}));
    EXPECT_EQ(statuses(expiring), std::vector<Status>(2, S::kTimeout));
    EXPECT_EQ(statuses(ok), std::vector<Status>(7, S::kOk));
    EXPECT_EQ(statuses(full), std::vector<Status>(2, S::kRejected));
    EXPECT_EQ(frame_statuses(f_full), std::vector<Status>(2, S::kRejected));
    EXPECT_EQ(frame_statuses(f_mixed),
              (std::vector<Status>{S::kOk, S::kInvalid, S::kOk}));
    EXPECT_EQ(frame_statuses(f_overflow),
              (std::vector<Status>{S::kOk, S::kRejected, S::kRejected}));
    service.stop(true);
    post_stop.push_back(service.submit("a", pt));
    post_stop.push_back(service.submit(b, pt));
    auto f_post = service.submit_batch("a", {pt, bad}, none);
    EXPECT_EQ(statuses(post_stop), std::vector<Status>(2, S::kRejected));
    EXPECT_EQ(frame_statuses(f_post),
              (std::vector<Status>{S::kRejected, S::kInvalid}));

    const ServiceStats st = service.stats();
    expect_reconciled(st);
    EXPECT_EQ(st.submitted, 33u);
    EXPECT_EQ(st.completed, 10u);
    EXPECT_EQ(st.rejected, 9u);
    EXPECT_EQ(st.timed_out, 6u);
    EXPECT_EQ(st.shed_at_admission, 4u);
    EXPECT_EQ(st.not_found, 3u);
    EXPECT_EQ(st.invalid, 5u);
    EXPECT_EQ(st.cancelled, 0u);
    EXPECT_EQ(st.shards[service.shard_of("a")].rejections, 6u);
    EXPECT_EQ(st.shards[service.shard_of(b)].rejections, 3u);
    EXPECT_EQ(st.shards[service.shard_of("a")].max_queue_depth, 6u);
    EXPECT_EQ(st.shards[service.shard_of(b)].max_queue_depth, 6u);
  }

  // Paused, blocking: a point and a frame time out waiting for space, a
  // hard stop cancels the queue, and the stopped service rejects.
  opts.shard_count = 1;
  opts.queue_capacity = 3;
  opts.overflow = OverflowPolicy::kBlock;
  EvalService service(reg, opts);
  std::vector<std::future<EvalResult>> queued, blocked, post_stop;
  for (int k = 0; k < 2; ++k) queued.push_back(service.submit("a", pt));
  auto f_queued = service.submit_batch("a", {pt, bad}, none);
  blocked.push_back(service.submit(
      "a", pt, EvalService::Clock::now() + std::chrono::milliseconds(20)));
  auto f_blocked = service.submit_batch(
      "a", {pt, pt},
      EvalService::Clock::now() + std::chrono::milliseconds(20));
  EXPECT_EQ(service.pending(), 3u);
  service.stop(/*drain=*/false);
  post_stop.push_back(service.submit("a", pt));
  auto f_post = service.submit_batch("a", {pt, pt}, none);
  EXPECT_EQ(statuses(queued), std::vector<Status>(2, S::kCancelled));
  EXPECT_EQ(frame_statuses(f_queued),
            (std::vector<Status>{S::kCancelled, S::kInvalid}));
  EXPECT_EQ(statuses(blocked), std::vector<Status>(1, S::kTimeout));
  EXPECT_EQ(frame_statuses(f_blocked), std::vector<Status>(2, S::kTimeout));
  EXPECT_EQ(statuses(post_stop), std::vector<Status>(1, S::kRejected));
  EXPECT_EQ(frame_statuses(f_post), std::vector<Status>(2, S::kRejected));

  const ServiceStats st = service.stats();
  expect_reconciled(st);
  EXPECT_EQ(st.submitted, 10u);
  EXPECT_EQ(st.cancelled, 3u);
  EXPECT_EQ(st.timed_out, 3u);
  EXPECT_EQ(st.shed_at_admission, 0u);
  EXPECT_EQ(st.invalid, 1u);
  EXPECT_EQ(st.rejected, 3u);
}

/// What one frame's admission came to.
struct Admission {
  std::vector<Status> statuses;
  std::size_t pending = 0;  ///< queued points right after submission
  ServiceStats stats;
};

/// One frame's admission on a fresh paused one-shard service, submitted
/// either whole (submit_batch) or point by point (submit) in order, after
/// `prefill` queued points on grid "f". The service is then started or
/// hard-stopped and the outcome collected.
Admission admit(const GridRegistry& reg, ServiceOptions opts,
                std::size_t prefill, const std::string& grid,
                const std::vector<CoordVector>& frame,
                EvalService::Clock::time_point deadline, bool cancel,
                bool whole) {
  opts.start_paused = true;
  opts.shard_count = 1;
  EvalService service(reg, opts);
  std::vector<std::future<EvalResult>> pre, points;
  for (std::size_t k = 0; k < prefill; ++k)
    pre.push_back(service.submit("f", CoordVector{0.5, 0.5}));
  std::future<std::vector<EvalResult>> results;
  if (whole)
    results = service.submit_batch(grid, frame, deadline);
  else
    for (const CoordVector& x : frame)
      points.push_back(service.submit(grid, x, deadline));
  Admission out;
  out.pending = service.pending();
  if (cancel)
    service.stop(/*drain=*/false);
  else
    service.start();
  if (whole)
    for (const EvalResult& r : results.get()) out.statuses.push_back(r.status);
  else
    for (auto& f : points) out.statuses.push_back(f.get().status);
  for (auto& f : pre) (void)f.get();
  service.stop(true);
  out.stats = service.stats();
  return out;
}

TEST(EvalService, FrameAdmissionMatchesPerPointSubmitsInOrder) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));
  const CoordVector ok{0.25, 0.75}, wrong_dim{0.5}, outside{0.5, 1.5};
  const std::vector<CoordVector> mixed = {ok, wrong_dim, ok, ok, outside,
                                          ok, ok};
  const auto now = EvalService::Clock::now();
  const auto past = now - std::chrono::milliseconds(1);
  const auto later = now + std::chrono::minutes(10);
  using S = Status;

  ServiceOptions roomy;
  ServiceOptions tight;  // 2 prefilled + 3 of the frame's 5 valid points
  tight.queue_capacity = 5;
  tight.overflow = OverflowPolicy::kReject;

  struct Case {
    const char* what;
    ServiceOptions opts;
    std::size_t prefill;
    std::string grid;
    EvalService::Clock::time_point deadline;
    bool cancel;
    std::vector<Status> want;
    std::size_t want_pending;
  };
  const std::vector<Case> cases = {
      {"mixed", roomy, 0, "f", later, false,
       {S::kOk, S::kInvalid, S::kOk, S::kOk, S::kInvalid, S::kOk, S::kOk}, 5},
      {"unknown grid", roomy, 0, "nope", later, false,
       std::vector<Status>(7, S::kNotFound), 0},
      {"expired deadline", roomy, 1, "f", past, false,
       {S::kTimeout, S::kInvalid, S::kTimeout, S::kTimeout, S::kInvalid,
        S::kTimeout, S::kTimeout},
       1},
      {"overflow mid-frame", tight, 2, "f", later, false,
       {S::kOk, S::kInvalid, S::kOk, S::kOk, S::kInvalid, S::kRejected,
        S::kRejected},
       5},
      {"hard stop", roomy, 2, "f", later, true,
       {S::kCancelled, S::kInvalid, S::kCancelled, S::kCancelled, S::kInvalid,
        S::kCancelled, S::kCancelled},
       7},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const Admission frame =
        admit(reg, c.opts, c.prefill, c.grid, mixed, c.deadline, c.cancel,
              /*whole=*/true);
    const Admission single =
        admit(reg, c.opts, c.prefill, c.grid, mixed, c.deadline, c.cancel,
              /*whole=*/false);
    EXPECT_EQ(frame.statuses, c.want);
    EXPECT_EQ(single.statuses, c.want);
    EXPECT_EQ(frame.pending, c.want_pending);
    EXPECT_EQ(single.pending, c.want_pending);
    expect_reconciled(frame.stats);
    ServiceStats::fields(
        [](const char* name, std::uint64_t f, std::uint64_t p) {
          EXPECT_EQ(f, p) << name;
        },
        frame.stats, single.stats);
    ASSERT_EQ(frame.stats.shards.size(), 1u);
    ASSERT_EQ(single.stats.shards.size(), 1u);
    ServiceStats::ShardStats::fields(
        [](const char* name, std::uint64_t f, std::uint64_t p) {
          EXPECT_EQ(f, p) << "shard." << name;
        },
        frame.stats.shards[0], single.stats.shards[0]);
  }
}

TEST(EvalService, BlockPolicyAdmitsAFrameLargerThanTheQueue) {
  GridRegistry reg;
  reg.add("f", make_grid(2, 3));
  const auto entry = reg.find("f");
  const auto pts = workloads::uniform_points(2, 10, 47);

  ServiceOptions opts;
  opts.start_paused = true;
  opts.shard_count = 1;
  opts.queue_capacity = 4;
  opts.overflow = OverflowPolicy::kBlock;
  EvalService service(reg, opts);

  // The producer submits two oversized frames. Hang guard: a frame that
  // is never admitted would block it forever, so every wait is bounded and
  // a hard stop releases the producer; the test then fails, not hangs.
  std::promise<void> first_in, second_in;
  std::future<void> first_admitted = first_in.get_future();
  std::future<void> second_admitted = second_in.get_future();
  std::future<std::vector<EvalResult>> first, second;
  std::thread producer([&] {
    first = service.submit_batch("f", pts, EvalService::kNoDeadline);
    first_in.set_value();
    second = service.submit_batch("f", pts, EvalService::kNoDeadline);
    second_in.set_value();
  });
  const auto admitted_within = [&](std::future<void>& f,
                                   std::chrono::milliseconds limit) {
    if (f.wait_for(limit) == std::future_status::ready) return true;
    ADD_FAILURE() << "an oversized frame was never admitted under kBlock";
    service.stop(/*drain=*/false);
    return false;
  };

  // An empty queue takes a frame of any size at once...
  if (admitted_within(first_admitted, std::chrono::seconds(10))) {
    EXPECT_EQ(service.pending(), 10u);
    // ...and the second waits until the queue has drained empty.
    EXPECT_EQ(second_admitted.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
    EXPECT_EQ(service.pending(), 10u);
    service.start();
    admitted_within(second_admitted, std::chrono::seconds(10));
  }
  producer.join();

  for (auto* f : {&first, &second}) {
    const std::vector<EvalResult> results = f->get();
    ASSERT_EQ(results.size(), pts.size());
    for (std::size_t k = 0; k < pts.size(); ++k) {
      EXPECT_EQ(results[k].status, Status::kOk) << k;
      EXPECT_EQ(results[k].value, evaluate(entry->storage, pts[k])) << k;
    }
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 20u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.shards[0].max_queue_depth, 10u);
}

TEST(EvalService, BatchesTakeWholeFramesUpToTheCap) {
  GridRegistry reg;
  reg.add("f", make_grid(3, 4));
  const auto entry = reg.find("f");

  ServiceOptions opts;
  opts.start_paused = true;
  opts.shard_count = 1;
  opts.workers = 1;
  opts.max_batch_points = 8;
  const auto check = [&](std::vector<std::vector<CoordVector>> frames,
                         std::uint64_t batches, std::uint64_t max_batch) {
    EvalService service(reg, opts);
    std::vector<std::future<std::vector<EvalResult>>> futures;
    for (const auto& frame : frames)
      futures.push_back(
          service.submit_batch("f", frame, EvalService::kNoDeadline));
    service.start();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::vector<EvalResult> results = futures[i].get();
      ASSERT_EQ(results.size(), frames[i].size());
      for (std::size_t k = 0; k < results.size(); ++k) {
        EXPECT_EQ(results[k].status, Status::kOk);
        // Submission order: slot k answers the frame's k-th point.
        EXPECT_EQ(results[k].value, evaluate(entry->storage, frames[i][k]))
            << "frame " << i << " point " << k;
      }
    }
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.batches_formed, batches);
    EXPECT_EQ(st.max_batch, max_batch);
  };

  // Ten 3-point frames: a third frame would make 9 > 8 points, so every
  // batch stops at two frames.
  std::vector<std::vector<CoordVector>> threes;
  for (std::uint32_t i = 0; i < 10; ++i)
    threes.push_back(workloads::uniform_points(3, 3, 60 + i));
  check(threes, 5, 6);
  // A frame larger than the cap is never split: it forms one batch alone.
  check({workloads::uniform_points(3, 20, 71)}, 1, 20);
}

// The acceptance stress: many (d, n) shapes served concurrently. Each
// entry's grid owns its plan from registration on, so serving neither
// rebuilds nor replaces a plan, however many shapes the registry holds.
TEST(ServeStress, ManyShapesUnderLoadKeepTheirPlans) {
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
  std::vector<const EvaluationPlan*> plans_before;
  for (const Shape& s : shapes)
    plans_before.push_back(&reg.find(s.name)->storage.grid().plan());

  ServiceOptions opts;
  opts.workers = 3;
  opts.queue_capacity = 4096;
  opts.max_batch_points = 24;
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
        if (r.status != Status::kOk ||
            r.value != evaluate(entry->storage, pts[0]))
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.stop(true);

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service.stats().completed, 4 * kPerProducer);

  for (std::size_t k = 0; k < shapes.size(); ++k)
    EXPECT_EQ(&reg.find(shapes[k].name)->storage.grid().plan(),
              plans_before[k])
        << shapes[k].name;
}

// Concurrent first touch of a fresh grid's plan, half the threads through
// the grid and half through copies of it: the lazy build runs once and
// every caller gets that one instance. Under the TSan lane this also
// checks that the build publishes the plan without a race.
TEST(ServeStress, ConcurrentSharedPlanFetchYieldsOneInstance) {
  const RegularSparseGrid grid(6, 6);
  constexpr unsigned kThreads = 8;
  const std::vector<RegularSparseGrid> copies(kThreads / 2, grid);
  std::vector<const EvaluationPlan*> plans(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const RegularSparseGrid& g = t % 2 == 0 ? grid : copies[t / 2];
      plans[t] = &g.plan();
    });
  for (std::thread& t : threads) t.join();

  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(plans[t], plans[0]);
  EXPECT_EQ(plans[0]->subspace_count(), EvaluationPlan(grid).subspace_count());
}

}  // namespace
}  // namespace csg::serve
