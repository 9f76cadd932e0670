// Experiment E11 — Sec. 4.3 ablation: cache blocking of the evaluation
// point loop.
//
// "Cache exploitation can be improved by ... blocking ... on the set of
// evaluation points and each block is processed after the j and l loops.
// The optimization is based on the fact that a subspace ... is needed by
// all the evaluations and is already present in cache."
// The harness measures plain per-point evaluation against the blocked
// variant over a range of block sizes, on a grid sized to exceed L2, and
// cross-checks the effect with the cache simulator's measured misses.
#include <algorithm>
#include <thread>

#include "bench_common.hpp"
#include "csg/baselines/generic_algorithms.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/memsim/traced_storages.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/testing/reference_evaluate.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace {

using namespace csg;
using csg::bench::Args;
using csg::bench::Better;
using csg::bench::Report;

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto d = static_cast<dim_t>(args.get_int("--dims", 6));
  const auto level = static_cast<level_t>(args.get_int("--level", 8));
  const auto points = static_cast<std::size_t>(args.get_int("--points", 4096));

  csg::bench::print_header(
      "bench_ablation_blocking: evaluation with and without blocking on "
      "the evaluation points",
      "Sec. 4.3 (subspace reuse across a block of evaluation points)");

  CompactStorage storage(d, level);
  storage.sample(workloads::parabola_product(d).f);
  hierarchize(storage);
  std::printf("grid: d=%u level=%u, %llu points (%.1f MB of coefficients), "
              "%zu evaluation points\n\n",
              d, level,
              static_cast<unsigned long long>(storage.size()),
              static_cast<double>(storage.size()) * 8 / 1e6, points);

  Report report("bench_ablation_blocking",
                "evaluation with and without blocking on the evaluation "
                "points",
                "Sec. 4.3");
  report.set_param("dims", static_cast<std::int64_t>(d));
  report.set_param("level", static_cast<std::int64_t>(level));
  report.set_param("points", static_cast<std::int64_t>(points));

  const auto pts = workloads::uniform_points(d, points, 21);
  const std::span<const real_t> coeffs(storage.data(),
                                       storage.values().size());
  // Pre-plan walk (first_level/advance_level per subspace per point, the
  // testing::evaluate_walk oracle) as the historical baseline, then the
  // production kernel unblocked (one-point blocks) and blocked.
  const double walk_s = csg::bench::time_per_call_s([&] {
    for (const CoordVector& x : pts)
      (void)testing::evaluate_walk(storage.grid(), coeffs, x);
  });
  std::printf("%-18s %10.4f s   (%.2fx)\n", "iterator walk", walk_s, 1.0);
  report.add_time("eval_s/iterator_walk", csg::bench::summarize({walk_s}))
      .tolerance = 1.0;
  const double plain_s = csg::bench::time_per_call_s(
      [&] { (void)evaluate_many_blocked(storage, pts, 1); });
  std::printf("%-18s %10.4f s   (%.2fx)\n", "plan unblocked", plain_s,
              walk_s / plain_s);
  report.add_time("eval_s/plan_unblocked", csg::bench::summarize({plain_s}))
      .tolerance = 1.0;
  for (std::size_t block : {16u, 64u, 256u, 1024u}) {
    const double s = csg::bench::time_per_call_s(
        [&] { (void)evaluate_many_blocked(storage, pts, block); });
    std::printf("block size %-7zu %10.4f s   (%.2fx)\n", block, s,
                walk_s / s);
    report
        .add_time("eval_s/blocked_b" + std::to_string(block),
                  csg::bench::summarize({s}))
        .tolerance = 1.0;
  }
  const int host_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const double omp_s = csg::bench::time_per_call_s([&] {
    (void)parallel::omp_evaluate_many_blocked(storage, pts, 64, host_threads);
  });
  std::printf("omp blocked (B=64, %2d thr) %10.4f s   (%.2fx)\n",
              host_threads, omp_s, walk_s / omp_s);
  // Depends on the host's core count — never gated.
  report.add_time("eval_s/omp_blocked_b64", csg::bench::summarize({omp_s}), "s",
                  1, Better::kNeutral);

  std::printf("\n(note: wall-clock gains depend on the coefficient array "
              "exceeding this host's last-level cache; on machines with "
              "very large LLCs the effect only shows at paper-scale "
              "grids)\n");

  // Cache-simulated cross-check on a Barcelona-sized cache (the paper's
  // Opteron testbed), where the 1.1 MB coefficient array exceeds the
  // 512 KB L2: DRAM lines per evaluation, per-point order vs the blocked
  // subspace-major order of Sec. 4.3.
  const std::size_t sim_points = std::min<std::size_t>(points, 512);
  const auto sim_pts = workloads::uniform_points(d, sim_points, 21);
  auto dram_per_eval = [&](bool blocked, std::size_t block) {
    memsim::CacheHierarchy caches = memsim::CacheHierarchy::barcelona_core();
    memsim::TracedCompactStorage traced(RegularSparseGrid(d, level), &caches);
    baselines::sample(traced, workloads::parabola_product(d).f);
    caches.flush();
    caches.reset_counters();
    if (blocked) {
      (void)baselines::evaluate_many_blocked_iterative(traced, sim_pts, block);
    } else {
      for (const CoordVector& x : sim_pts)
        (void)baselines::evaluate_iterative(traced, x);
    }
    return static_cast<double>(caches.memory_accesses()) /
           static_cast<double>(sim_points);
  };
  std::printf("\ncache-simulated DRAM lines per evaluation (512 KB L2, "
              "coefficients %.1f MB):\n",
              static_cast<double>(storage.size()) * 8 / 1e6);
  const double per_point_dram = dram_per_eval(false, 0);
  std::printf("  per-point order:   %10.1f\n", per_point_dram);
  // 5% band: the simulator maps real heap addresses, ASLR wobbles misses.
  report
      .add_counter("dram_lines_per_eval/per_point", per_point_dram, "lines",
                   Better::kLess)
      .tolerance = 0.05;
  for (std::size_t block : {16u, 64u, 256u, 512u}) {
    const double lines = dram_per_eval(true, block);
    std::printf("  blocked (B=%4zu):  %10.1f\n", block, lines);
    report
        .add_counter("dram_lines_per_eval/blocked_b" + std::to_string(block),
                     lines, "lines", Better::kLess)
        .tolerance = 0.05;
  }
  std::printf("\nreading: the subspace-major blocked order divides the "
              "coefficient traffic by ~B, which is why evaluation stays "
              "compute-bound in Fig. 11b.\n");
  csg::bench::finish_report(report, args);
  return 0;
}
