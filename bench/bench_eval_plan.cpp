// Experiment E14 — EvaluationPlan micro-benchmark: what the one-time
// flattening of the subspace enumeration buys on the batched query path.
//
// Stages, all producing bit-identical results (verified here):
//   walk       per-point Alg. 7 with first_level/advance_level in the inner
//              loop (the pre-plan scalar path, the testing::evaluate_walk
//              oracle)
//   plan       per-point evaluation over the flattened plan: the production
//              kernel on one-point blocks (evaluate_many_blocked, block 1)
//   blocked    Sec. 4.3 point blocking on top of the plan
//   omp        omp_evaluate_many_blocked: threads over point blocks,
//              plan shared read-only, disjoint out ranges (barrier-free)
// The default shape (d=5, n=9, 10k points) matches the acceptance target:
// omp blocked must beat sequential per-point evaluation.
#include <thread>

#include "bench_common.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/testing/reference_evaluate.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace {

using namespace csg;
using csg::bench::Args;
using csg::bench::Better;
using csg::bench::Report;

bool bit_identical(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p)
    if (a[p] != b[p]) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto d = static_cast<dim_t>(args.get_int("--dims", 5));
  const auto n = static_cast<level_t>(args.get_int("--level", 9));
  const auto points = static_cast<std::size_t>(args.get_int("--points", 10000));
  const auto block = static_cast<std::size_t>(args.get_int("--block", 64));
  const int threads = static_cast<int>(args.get_int(
      "--threads", static_cast<long>(std::thread::hardware_concurrency())));

  csg::bench::print_header(
      "bench_eval_plan: subspace evaluation plan vs the iterator walk",
      "plan flattening + Sec. 4.3 blocking + OpenMP over point blocks");

  CompactStorage storage(d, n);
  storage.sample(workloads::parabola_product(d).f);
  hierarchize(storage);
  const std::span<const real_t> coeffs(storage.data(),
                                       storage.values().size());
  const auto pts = workloads::uniform_points(d, points, 19);

  const double plan_build_s = csg::bench::time_per_call_s(
      [&] { EvaluationPlan throwaway(storage.grid()); });
  const EvaluationPlan plan(storage.grid());
  std::printf("grid d=%u n=%u: %llu coefficients (%.2f MB), %zu subspaces "
              "(plan %.1f KB, built in %.3f ms)\n"
              "%zu query points, block size %zu, %d thread(s)\n\n",
              d, n, static_cast<unsigned long long>(storage.size()),
              static_cast<double>(storage.size()) * sizeof(real_t) / 1e6,
              plan.subspace_count(),
              static_cast<double>(plan.memory_bytes()) / 1e3,
              plan_build_s * 1e3, pts.size(), block, threads);

  // Pre-plan scalar reference: the walk that re-derives every level vector.
  std::vector<real_t> reference(pts.size());
  const double walk_s = csg::bench::time_per_call_s([&] {
    for (std::size_t p = 0; p < pts.size(); ++p)
      reference[p] = testing::evaluate_walk(storage.grid(), coeffs, pts[p]);
  });

  std::vector<real_t> seq_many;
  const double seq_many_s = csg::bench::time_per_call_s(
      [&] { seq_many = evaluate_many_blocked(storage, pts, 1); });

  std::vector<real_t> blocked;
  const double blocked_s = csg::bench::time_per_call_s(
      [&] { blocked = evaluate_many_blocked(storage, pts, block); });

  std::vector<real_t> omp_blocked;
  const double omp_s = csg::bench::time_per_call_s([&] {
    omp_blocked =
        parallel::omp_evaluate_many_blocked(storage, pts, block, threads);
  });

  Report report("bench_eval_plan",
                "subspace evaluation plan vs the iterator walk", "Sec. 4.3");
  report.set_param("dims", static_cast<std::int64_t>(d));
  report.set_param("level", static_cast<std::int64_t>(n));
  report.set_param("points", static_cast<std::int64_t>(points));
  report.set_param("block", static_cast<std::int64_t>(block));
  report.set_param("threads", static_cast<std::int64_t>(threads));
  report
      .add_time("plan/build_ms", csg::bench::summarize({plan_build_s}), "ms",
                1e3)
      .tolerance = 1.0;
  report.add_counter("plan/memory_kb",
                     static_cast<double>(plan.memory_bytes()) / 1e3, "KB",
                     Better::kLess);

  const bool exact_many = bit_identical(seq_many, reference);
  const bool exact_blocked = bit_identical(blocked, reference);
  const bool exact_omp = bit_identical(omp_blocked, reference);
  auto row = [&](const char* name, double s, bool exact) {
    std::printf("%-26s %10.4f s  %8.2fx vs walk  %8.2fx vs per point  "
                "exact: %s\n",
                name, s, walk_s / s, seq_many_s / s, exact ? "yes" : "NO");
  };
  row("walk (pre-plan scalar)", walk_s, true);
  row("plan per point", seq_many_s, exact_many);
  row("plan blocked", blocked_s, exact_blocked);
  row("omp plan blocked", omp_s, exact_omp);
  report.add_time("eval_s/walk", csg::bench::summarize({walk_s})).tolerance =
      1.0;
  report.add_time("eval_s/plan_many", csg::bench::summarize({seq_many_s}))
      .tolerance = 1.0;
  report.add_time("eval_s/plan_blocked", csg::bench::summarize({blocked_s}))
      .tolerance = 1.0;
  report.add_time("eval_s/omp_plan_blocked", csg::bench::summarize({omp_s}),
                  "s", 1, Better::kNeutral);
  // Bit-identical results are a hard invariant, not a performance number.
  report.add_counter("exact/plan_many", exact_many ? 1 : 0, "bool",
                     Better::kMore);
  report.add_counter("exact/plan_blocked", exact_blocked ? 1 : 0, "bool",
                     Better::kMore);
  report.add_counter("exact/omp_plan_blocked", exact_omp ? 1 : 0, "bool",
                     Better::kMore);

  const bool faster = omp_s < seq_many_s;
  std::printf("\nacceptance: omp_evaluate_many_blocked faster than "
              "sequential per-point evaluation: %s (%.4f s vs %.4f s, "
              "%.2fx)\n",
              faster ? "yes" : "NO", omp_s, seq_many_s, seq_many_s / omp_s);
  report.add_counter("shape/omp_blocked_beats_sequential", faster ? 1 : 0,
                     "bool", Better::kNeutral);

  std::printf("\nthread sweep (omp plan blocked):\n");
  for (int t = 1; t <= threads; t *= 2) {
    const double s = csg::bench::time_s([&] {
      (void)parallel::omp_evaluate_many_blocked(storage, pts, block, t);
    });
    std::printf("  %2d thread(s)  %10.4f s  (%.2fx vs 1-thread per point)\n",
                t, s, seq_many_s / s);
  }

  // --- soa_vs_scalar: the SoA batch kernel against the scalar blocked
  // oracle (testing::evaluate_blocked_scalar, DESIGN.md §14), same plan,
  // same blocking. The speedup is recorded neutral (it is
  // host-vector-width-dependent); the work counters are deterministic
  // functions of (points, block, plan) and gate exactly.
  {
    std::vector<real_t> scalar_out;
    const double scalar_s = csg::bench::time_per_call_s([&] {
      scalar_out = testing::evaluate_blocked_scalar(storage, pts, block);
    });
    // Warm the thread-local arena, then pin zero steady-state allocation
    // and take one deterministic counter snapshot.
    std::vector<real_t> soa_out = evaluate_many_blocked(storage, pts, block);
    const std::uint64_t arena0 = PointBlock::allocation_count();
    reset_soa_kernel_stats();
    soa_out = evaluate_many_blocked(storage, pts, block);
    const SoaKernelStats stats = soa_kernel_stats();
    const std::uint64_t steady_allocs =
        PointBlock::allocation_count() - arena0;
    const double soa_s = csg::bench::time_per_call_s(
        [&] { soa_out = evaluate_many_blocked(storage, pts, block); });

    const bool exact_soa = bit_identical(soa_out, reference) &&
                           bit_identical(scalar_out, reference);
    std::printf("\nsoa_vs_scalar (block %zu, lane width %zu):\n", block,
                kPointBlockLane);
    std::printf("  scalar oracle     %10.4f s\n", scalar_s);
    std::printf("  soa kernel        %10.4f s  %8.2fx vs scalar   exact: %s\n",
                soa_s, scalar_s / soa_s, exact_soa ? "yes" : "NO");
    std::printf("  one pass: %llu blocks, %llu lanes, %llu subspace visits, "
                "%llu steady-state arena allocations\n",
                static_cast<unsigned long long>(stats.blocks),
                static_cast<unsigned long long>(stats.lanes),
                static_cast<unsigned long long>(stats.subspaces_visited),
                static_cast<unsigned long long>(steady_allocs));
    report.add_time("eval_s/soa_blocked", csg::bench::summarize({soa_s}))
        .tolerance = 1.0;
    report.add_time("eval_s/scalar_blocked",
                    csg::bench::summarize({scalar_s}))
        .tolerance = 1.0;
    report.add_counter("soa/speedup_vs_scalar", scalar_s / soa_s, "x",
                       Better::kNeutral);
    report.add_counter("soa/points", static_cast<double>(pts.size()), "count",
                       Better::kNeutral);
    report.add_counter("soa/lane_width",
                       static_cast<double>(kPointBlockLane), "points",
                       Better::kNeutral);
    report.add_counter("soa/blocks", static_cast<double>(stats.blocks),
                       "count", Better::kNeutral);
    report.add_counter("soa/lanes", static_cast<double>(stats.lanes), "count",
                       Better::kNeutral);
    report.add_counter("soa/subspaces_visited",
                       static_cast<double>(stats.subspaces_visited), "count",
                       Better::kNeutral);
    // Hard invariants: exact parity, and no arena growth once warm.
    report.add_counter("exact/soa_blocked", exact_soa ? 1 : 0, "bool",
                       Better::kMore);
    report.add_counter("soa/steady_state_allocs",
                       static_cast<double>(steady_allocs), "count",
                       Better::kLess);
  }
  csg::bench::finish_report(report, args);
  // The speedup acceptance gate depends on the host having idle cores;
  // CI runners share theirs, so the nonzero exit is opt-in.
  if (args.has("--strict") && !faster) return 1;
  return 0;
}
