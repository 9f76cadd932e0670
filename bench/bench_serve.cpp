// Experiment E15 — serving-layer benchmark: the csg::serve batched
// evaluation front-end under a closed-loop load generator.
//
// Two kinds of metrics come out of one binary:
//
//  * deterministic batching/backpressure/deadline counters, produced on a
//    paused service so batch formation is pure arithmetic (batches ==
//    ceil(R / B), rejections == R - queue capacity, timeouts == requests
//    with expired deadlines, whole frames per batch up to B points). These
//    gate at 1e-6 in tools/bench_compare.py — any drift is a logic change,
//    not noise.
//  * wall-clock throughput/latency of the live service, recorded as
//    neutral metrics (scheduler-dependent; informational only).
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/core/point_block.hpp"
#include "csg/serve/grid_registry.hpp"
#include "csg/serve/service.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace {

using namespace csg;
using csg::bench::Args;
using csg::bench::Better;
using csg::bench::Report;

CompactStorage make_grid(dim_t d, level_t n) {
  CompactStorage s(d, n);
  s.sample(workloads::simulation_field(d).f);
  hierarchize(s);
  return s;
}

/// Exact-equality gate: a deterministic counter whose drift in either
/// direction is a logic change. kLess + 1e-6 makes growth a hard failure
/// (and shrinkage a visible "improvement" in the comparison report).
void add_exact(Report& report, const std::string& name, double value,
               const std::string& unit) {
  report.add_counter(name, value, unit, Better::kLess).tolerance = 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto d = static_cast<dim_t>(args.get_int("--dims", 3));
  const auto n = static_cast<level_t>(args.get_int("--level", 5));
  const auto requests =
      static_cast<std::size_t>(args.get_int("--requests", 512));
  const auto batch = static_cast<std::size_t>(args.get_int("--batch", 64));
  const auto queue = static_cast<std::size_t>(args.get_int("--queue", 128));
  const int producers = static_cast<int>(args.get_int("--producers", 4));
  const int workers = static_cast<int>(args.get_int("--workers", 2));

  csg::bench::print_header(
      "bench_serve: batched multi-grid evaluation service",
      "csg::serve front-end over Sec. 4.3 blocked evaluation");

  serve::GridRegistry registry;
  registry.add("a", make_grid(d, n));
  registry.add("b", make_grid(d, n > 1 ? static_cast<level_t>(n - 1) : n));
  const auto pts = workloads::uniform_points(d, requests, 23);

  Report report("bench_serve", "batched multi-grid evaluation service",
                "serving front-end (docs/SERVING.md)");
  report.set_param("dims", static_cast<std::int64_t>(d));
  report.set_param("level", static_cast<std::int64_t>(n));
  report.set_param("requests", static_cast<std::int64_t>(requests));
  report.set_param("batch", static_cast<std::int64_t>(batch));
  report.set_param("queue", static_cast<std::int64_t>(queue));
  report.set_param("producers", static_cast<std::int64_t>(producers));
  report.set_param("workers", static_cast<std::int64_t>(workers));
  report.set_param("shards", static_cast<std::int64_t>(4));

  // --- deterministic batching accounting -------------------------------
  // Paused service: all R requests are queued before any worker runs, so
  // batches form at full size and the counters are exact.
  {
    serve::ServiceOptions opts;
    opts.queue_capacity = requests;
    opts.max_batch_points = batch;
    opts.workers = workers;
    opts.start_paused = true;
    serve::EvalService service(registry, opts);
    std::vector<std::future<serve::EvalResult>> futs;
    futs.reserve(requests);
    for (std::size_t k = 0; k < requests; ++k)
      futs.push_back(service.submit("a", pts[k]));
    service.start();
    for (auto& f : futs) (void)f.get();
    service.stop();
    const auto st = service.stats();
    const auto expected = (requests + batch - 1) / batch;
    std::printf("batching    %llu batches for %zu requests (expect %zu), "
                "mean %.2f, max %llu\n",
                static_cast<unsigned long long>(st.batches_formed), requests,
                expected, st.mean_batch(),
                static_cast<unsigned long long>(st.max_batch));
    add_exact(report, "batching/batches_formed",
              static_cast<double>(st.batches_formed), "batches");
    add_exact(report, "batching/mean_batch", st.mean_batch(), "points");
    add_exact(report, "batching/max_batch",
              static_cast<double>(st.max_batch), "points");
    add_exact(report, "batching/completed",
              static_cast<double>(st.completed), "requests");
  }

  // --- deterministic frame batching ------------------------------------
  // Paused service fed by submit_batch: R/3 frames of 3 points, then one
  // frame of B + B/4 points. A batch takes whole frames, oldest first, and
  // stops before exceeding B points, so every batch holds floor(B/3)
  // frames; the oversized last frame is never split and forms a batch of
  // its own.
  {
    serve::ServiceOptions opts;
    opts.queue_capacity = requests + batch + batch / 4;
    opts.max_batch_points = batch;
    opts.workers = workers;
    opts.start_paused = true;
    serve::EvalService service(registry, opts);
    std::vector<std::vector<CoordVector>> frames;
    for (std::size_t k = 0; k + 3 <= requests; k += 3)
      frames.emplace_back(pts.begin() + static_cast<std::ptrdiff_t>(k),
                          pts.begin() + static_cast<std::ptrdiff_t>(k + 3));
    const std::size_t small_frames = frames.size();
    frames.emplace_back();
    for (std::size_t k = 0; k < batch + batch / 4; ++k)
      frames.back().push_back(pts[k % pts.size()]);
    std::vector<std::future<std::vector<serve::EvalResult>>> futs;
    futs.reserve(frames.size());
    for (auto& frame : frames)
      futs.push_back(service.submit_batch(
          "a", std::move(frame), serve::EvalService::kNoDeadline));
    service.start();
    for (auto& f : futs) (void)f.get();
    service.stop();
    const auto st = service.stats();
    const std::size_t per_batch = std::max<std::size_t>(1, batch / 3);
    std::printf("frames      %llu batches for %zu frames (expect %zu), "
                "max %llu, %llu points\n",
                static_cast<unsigned long long>(st.batches_formed),
                small_frames + 1,
                (small_frames + per_batch - 1) / per_batch + 1,
                static_cast<unsigned long long>(st.max_batch),
                static_cast<unsigned long long>(st.completed));
    add_exact(report, "frames/batches_formed",
              static_cast<double>(st.batches_formed), "batches");
    add_exact(report, "frames/max_batch", static_cast<double>(st.max_batch),
              "points");
    add_exact(report, "frames/completed", static_cast<double>(st.completed),
              "points");
  }

  // --- deterministic rejection accounting ------------------------------
  // Paused + kReject + small queue: exactly (submitted - capacity) shed.
  {
    serve::ServiceOptions opts;
    opts.queue_capacity = queue;
    opts.max_batch_points = batch;
    opts.workers = workers;
    opts.overflow = serve::OverflowPolicy::kReject;
    opts.start_paused = true;
    serve::EvalService service(registry, opts);
    std::vector<std::future<serve::EvalResult>> futs;
    futs.reserve(requests);
    for (std::size_t k = 0; k < requests; ++k)
      futs.push_back(service.submit("a", pts[k]));
    service.start();
    for (auto& f : futs) (void)f.get();
    service.stop();
    const auto st = service.stats();
    std::printf("rejection   %llu shed of %zu offered at capacity %zu\n",
                static_cast<unsigned long long>(st.rejected), requests, queue);
    add_exact(report, "backpressure/rejected",
              static_cast<double>(st.rejected), "requests");
    add_exact(report, "backpressure/completed",
              static_cast<double>(st.completed), "requests");
  }

  // --- deterministic deadline accounting -------------------------------
  // Every request submitted with an already-expired deadline: all are shed
  // at admission (deadline-aware early shedding), none is evaluated.
  {
    serve::ServiceOptions opts;
    opts.queue_capacity = requests;
    opts.max_batch_points = batch;
    opts.workers = workers;
    opts.start_paused = true;
    serve::EvalService service(registry, opts);
    const auto past =
        serve::EvalService::Clock::now() - std::chrono::seconds(1);
    std::vector<std::future<serve::EvalResult>> futs;
    futs.reserve(requests);
    for (std::size_t k = 0; k < requests; ++k)
      futs.push_back(service.submit("a", pts[k], past));
    service.start();
    for (auto& f : futs) (void)f.get();
    service.stop();
    const auto st = service.stats();
    std::printf("deadlines   %llu timed out of %zu, %llu evaluated\n",
                static_cast<unsigned long long>(st.timed_out), requests,
                static_cast<unsigned long long>(st.batched_points));
    add_exact(report, "deadline/timed_out",
              static_cast<double>(st.timed_out), "requests");
    add_exact(report, "deadline/evaluated_points",
              static_cast<double>(st.batched_points), "points");
  }

  // --- deterministic shard isolation -----------------------------------
  // One hot grid floods its shard past capacity (kReject) while a cold
  // grid on a *different* shard is loaded to exactly its own capacity.
  // Per-grid sharding means the hot shard sheds without touching the cold
  // one: the cold shard completes everything, rejections stay pinned to
  // the hot shard, and every number is pure arithmetic. The grid-to-shard
  // map is a fixed FNV-1a hash, so the hot/cold pick is stable run-to-run.
  {
    const std::size_t shard_count = 4;
    serve::GridRegistry shard_registry;
    const auto shard_level = static_cast<level_t>(std::min<int>(n, 3));
    for (int g = 0; g < 8; ++g)
      shard_registry.add("shard" + std::to_string(g),
                         make_grid(d, shard_level));
    serve::ServiceOptions opts;
    opts.shard_count = shard_count;
    opts.queue_capacity = queue;
    opts.max_batch_points = batch;
    opts.workers = workers;
    opts.overflow = serve::OverflowPolicy::kReject;
    opts.start_paused = true;
    serve::EvalService service(shard_registry, opts);
    const std::string hot = "shard0";
    std::string cold;
    for (int g = 1; g < 8; ++g) {
      std::string name = "shard" + std::to_string(g);
      if (service.shard_of(name) != service.shard_of(hot)) {
        cold = std::move(name);
        break;
      }
    }
    if (cold.empty()) {
      std::fprintf(stderr, "bench_serve: no cold shard candidate found\n");
      return 1;
    }
    std::vector<std::future<serve::EvalResult>> futs;
    futs.reserve(requests + queue);
    for (std::size_t k = 0; k < requests; ++k)
      futs.push_back(service.submit(hot, pts[k % pts.size()]));
    for (std::size_t k = 0; k < queue; ++k)
      futs.push_back(service.submit(cold, pts[k % pts.size()]));
    service.start();
    std::size_t ok = 0, shed = 0;
    for (auto& f : futs) {
      const auto r = f.get();
      if (r.status == serve::Status::kOk)
        ++ok;
      else
        ++shed;
    }
    service.stop();
    const auto st = service.stats();
    const auto& hot_shard = st.shards[service.shard_of(hot)];
    const auto& cold_shard = st.shards[service.shard_of(cold)];
    std::printf("sharding    hot shard %zu shed %llu of %zu, cold shard %zu "
                "completed %llu of %zu (%zu ok / %zu shed overall)\n",
                service.shard_of(hot),
                static_cast<unsigned long long>(hot_shard.rejections),
                requests, service.shard_of(cold),
                static_cast<unsigned long long>(cold_shard.submits), queue,
                ok, shed);
    add_exact(report, "sharding/hot_submits",
              static_cast<double>(hot_shard.submits), "requests");
    add_exact(report, "sharding/hot_rejections",
              static_cast<double>(hot_shard.rejections), "requests");
    add_exact(report, "sharding/cold_submits",
              static_cast<double>(cold_shard.submits), "requests");
    add_exact(report, "sharding/cold_rejections",
              static_cast<double>(cold_shard.rejections), "requests");
    add_exact(report, "sharding/completed", static_cast<double>(st.completed),
              "requests");
    add_exact(report, "sharding/hot_max_queue_depth",
              static_cast<double>(hot_shard.max_queue_depth), "requests");
  }

  // --- deterministic SoA arena reuse -----------------------------------
  // One shard, one worker: the worker owns one thread-local PointBlock
  // arena. The first drained round sizes it; every later batch is equal or
  // smaller — per-point rounds alternate with rounds of B-point frames —
  // so the process-wide arena growth counter must stay exactly flat: the
  // "zero per-batch point-layout allocation" claim of DESIGN.md §14, gated
  // at 1e-6.
  {
    serve::ServiceOptions opts;
    opts.shard_count = 1;
    opts.queue_capacity = requests;
    opts.max_batch_points = batch;
    opts.workers = 1;
    opts.start_paused = true;
    serve::EvalService service(registry, opts);
    std::vector<std::future<serve::EvalResult>> futs;
    futs.reserve(requests);
    for (std::size_t k = 0; k < requests; ++k)
      futs.push_back(service.submit("a", pts[k]));
    service.start();
    for (auto& f : futs) (void)f.get();
    futs.clear();
    const std::uint64_t warm = PointBlock::allocation_count();
    const int rounds = 4;
    for (int r = 0; r < rounds; ++r) {
      if (r % 2 == 0) {
        for (std::size_t k = 0; k < requests; ++k)
          futs.push_back(service.submit("a", pts[k]));
        for (auto& f : futs) (void)f.get();
        futs.clear();
        continue;
      }
      std::vector<std::future<std::vector<serve::EvalResult>>> frames;
      for (std::size_t k = 0; k < requests; k += batch)
        frames.push_back(service.submit_batch(
            "a", std::vector<CoordVector>(
                     pts.begin() + static_cast<std::ptrdiff_t>(k),
                     pts.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(k + batch, requests))),
            serve::EvalService::kNoDeadline));
      for (auto& f : frames) (void)f.get();
    }
    service.stop();
    const std::uint64_t steady = PointBlock::allocation_count() - warm;
    std::printf("soa arena   %llu allocations across %d steady rounds of %zu "
                "requests (expect 0)\n",
                static_cast<unsigned long long>(steady), rounds, requests);
    add_exact(report, "soa_arena/steady_state_allocs",
              static_cast<double>(steady), "allocations");
  }

  // --- live throughput (informational) ---------------------------------
  // Closed loop: each producer waits for its future before the next
  // submit, alternating between the two grids.
  double secs = 0;
  {
    serve::ServiceOptions opts;
    opts.queue_capacity = queue;
    opts.max_batch_points = batch;
    opts.workers = workers;
    serve::EvalService service(registry, opts);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p)
      threads.emplace_back([&, p] {
        const std::size_t share = requests / static_cast<std::size_t>(
                                                 producers);
        for (std::size_t k = 0; k < share; ++k) {
          const char* grid = ((k + static_cast<std::size_t>(p)) % 2) ? "b"
                                                                     : "a";
          (void)service.submit(grid, pts[k]).get();
        }
      });
    for (std::thread& t : threads) t.join();
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
    service.stop();
    const auto st = service.stats();
    std::printf("throughput  %.0f req/s closed-loop (%llu completed, "
                "mean batch %.2f)\n",
                static_cast<double>(st.completed) / secs,
                static_cast<unsigned long long>(st.completed),
                st.mean_batch());
    report.add_time("serve/closed_loop", csg::bench::summarize({secs}), "s",
                    1, Better::kNeutral);
    report.add_counter("serve/req_per_s",
                       static_cast<double>(st.completed) / secs, "req/s",
                       Better::kNeutral);
  }

  csg::bench::finish_report(report, args);
  return 0;
}
