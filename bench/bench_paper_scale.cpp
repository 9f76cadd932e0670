// Experiment E12+ — the paper's largest configuration, for real: the
// d = 10, level 11 regular sparse grid with 127,574,017 points (Sec. 6).
//
// Default runs level 9 (8.1M points) so the harness stays fast; pass
// --paper-scale for the full level-11 grid (1.02 GB of coefficients,
// ~35 s end to end on a laptop-class core). Verifies at scale:
//  * the exact point count range of Sec. 6,
//  * gp2idx bijectivity under random fuzz,
//  * hierarchization (the production pole sweep) + evaluation wall-clock,
//  * interpolation error on a smooth field.
#include <cmath>
#include <random>

#include "bench_common.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/testing/generators.hpp"
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
  const dim_t d = 10;
  const level_t level = args.has("--paper-scale")
                            ? 11
                            : static_cast<level_t>(args.get_int("--level", 9));

  csg::bench::print_header(
      "bench_paper_scale: the d=10 grid of Sec. 6 at (or near) level 11",
      "Sec. 6 grid sizes ([2047, 127574017] points) + end-to-end timings "
      "on the compact structure");

  std::printf("N(1,11) = %llu (paper: 2047), N(10,11) = %llu "
              "(paper: 127574017)\n",
              static_cast<unsigned long long>(regular_grid_num_points(1, 11)),
              static_cast<unsigned long long>(
                  regular_grid_num_points(10, 11)));

  Report report("bench_paper_scale",
                "the d=10 grid of Sec. 6 at (or near) level 11", "Sec. 6");
  report.set_param("dims", static_cast<std::int64_t>(d));
  report.set_param("level", static_cast<std::int64_t>(level));
  report.set_param("paper_scale", args.has("--paper-scale"));

  CompactStorage s(d, level);
  std::printf("\ngrid under test: d=%u level=%u, %llu points, %.3f GB\n", d,
              level, static_cast<unsigned long long>(s.size()),
              static_cast<double>(s.memory_bytes()) / 1e9);
  report.add_counter("grid/points", static_cast<double>(s.size()), "points",
                     Better::kNeutral);
  report.add_counter("grid/gb", static_cast<double>(s.memory_bytes()) / 1e9,
                     "GB", Better::kLess);

  std::mt19937_64 rng(csg::testing::mix_seed(7));
  const double fuzz_s = csg::bench::time_per_call_s([&] {
    for (int k = 0; k < 100000; ++k) {
      const flat_index_t j = csg::testing::random_flat_index(rng, s.grid());
      if (s.grid().gp2idx(s.grid().idx2gp(j)) != j) {
        std::printf("BIJECTION FAILURE at %llu\n",
                    static_cast<unsigned long long>(j));
        std::exit(1);
      }
    }
  });
  std::printf("bijection fuzz: 100000 random round trips OK (%.2f us each)\n",
              fuzz_s * 10);
  report
      .add_time("bijection_fuzz/us_per_round_trip",
                csg::bench::summarize({fuzz_s}), "us", 10.0)
      .tolerance = 1.0;

  const auto f = workloads::parabola_product(d);
  const double sample_s = csg::bench::time_s([&] { s.sample(f.f); });
  const double hier_s = csg::bench::time_s([&] { hierarchize(s); });
  std::printf("sample            %8.2f s  (%5.1f Mpts/s)\n", sample_s,
              static_cast<double>(s.size()) / sample_s / 1e6);
  std::printf("hierarchize       %8.2f s  (%5.1f Mpts/s over %u dims)\n",
              hier_s, static_cast<double>(s.size()) / hier_s / 1e6, d);
  report.add_time("sample_s", csg::bench::summarize({sample_s})).tolerance =
      1.0;
  // Metric name kept from when the pole sweep was a separate entry point,
  // so the recorded history stays continuous.
  report.add_time("hierarchize_poles_s", csg::bench::summarize({hier_s}))
      .tolerance = 1.0;

  const auto pts = workloads::uniform_points(d, 50, 3);
  real_t max_err = 0;
  const double eval_s = csg::bench::time_s([&] {
    for (const CoordVector& x : pts)
      max_err = std::max(max_err, std::abs(evaluate(s, x) - f(x)));
  });
  std::printf("evaluate          %8.2f ms/point, max |fs - f| = %.2e\n",
              eval_s / static_cast<double>(pts.size()) * 1e3, max_err);
  report
      .add_time("evaluate_ms_per_point", csg::bench::summarize({eval_s}), "ms",
                1e3 / static_cast<double>(pts.size()))
      .tolerance = 1.0;
  report.add_counter("interpolation/max_error", static_cast<double>(max_err),
                     "abs", Better::kLess);
  std::printf("\n(pass --paper-scale for the full 127.6M-point level-11 "
              "run: ~1 GB, ~35 s)\n");
  csg::bench::finish_report(report, args);
  return 0;
}
