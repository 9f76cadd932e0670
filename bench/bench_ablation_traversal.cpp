// Ablation — three traversals of the same O(N d) hierarchization on the
// compact structure:
//  * literal Alg. 6: flat loop with a full idx2gp decode per point (the
//    paper's pseudocode, verbatim; csg::testing::hierarchize_literal);
//  * subspace-wise Alg. 6: level groups descending, index odometer, two
//    gp2idx parent lookups per point (the paper's intended GPU-style
//    implementation; csg::testing::hierarchize_groups);
//  * pole sweep: scalar Alg. 1 recursions on direct index arithmetic — no
//    gp2idx at all (the production csg::hierarchize).
// All three produce bit-identical coefficients (asserted in tests); the
// bench shows what the bijection arithmetic costs and what the flat
// layout enables. The boundary grid (Sec. 4.4) gets the same comparison:
// its per-point walk (idx2bp plus two bp2idx parent lookups per point and
// dimension; csg::testing::hierarchize_boundary_pointwise) against the
// production face-wise pole sweep, with both directions checked exact.
#include "bench_common.hpp"
#include "csg/core/boundary_grid.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/testing/reference_hierarchize.hpp"
#include "csg/workloads/functions.hpp"

namespace {

using namespace csg;
using csg::bench::Args;
using csg::bench::Better;
using csg::bench::Report;

/// Seconds per call of an in-place transform of `input`. Each repetition
/// transforms a fresh copy and only the transform is accumulated, until a
/// 50 ms window is filled (at small d a single pass is microseconds — far
/// too noisy to gate).
template <class Storage>
double time_transform(const Storage& input, void (*transform)(Storage&)) {
  double accum = 0;
  int calls = 0;
  do {
    Storage s = input;
    accum += csg::bench::time_s([&] { transform(s); });
    ++calls;
  } while (accum < 0.05);
  return accum / calls;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto level = static_cast<level_t>(args.get_int("--level", 7));

  csg::bench::print_header(
      "bench_ablation_traversal: literal Alg. 6 vs subspace-wise Alg. 6 vs "
      "pole-based transform",
      "Alg. 6 implementation space (all bit-identical; see "
      "tests/test_hierarchize.cpp)");

  Report report("bench_ablation_traversal",
                "literal vs subspace-wise vs pole-based hierarchization "
                "traversals",
                "Alg. 6");
  report.set_param("level", static_cast<std::int64_t>(level));

  std::printf("%-4s %12s %14s %14s %14s %10s\n", "d", "N points",
              "literal (ms)", "subspace (ms)", "poles (ms)", "poles win");
  for (dim_t d = 2; d <= 10; d += 2) {
    CompactStorage nodal(d, level);
    nodal.sample(workloads::parabola_product(d).f);
    const double t_lit =
        time_transform(nodal, &csg::testing::hierarchize_literal);
    const double t_sub =
        time_transform(nodal, &csg::testing::hierarchize_groups);
    const double t_pole = time_transform(nodal, &hierarchize);
    std::printf("%-4u %12llu %14.3f %14.3f %14.3f %9.1fx\n", d,
                static_cast<unsigned long long>(
                    regular_grid_num_points(d, level)),
                t_lit * 1e3, t_sub * 1e3, t_pole * 1e3, t_sub / t_pole);
    const std::string dk = "/d" + std::to_string(d);
    report
        .add_time("hierarchize_ms/literal" + dk, csg::bench::summarize({t_lit}),
                  "ms", 1e3)
        .tolerance = 1.0;
    report
        .add_time("hierarchize_ms/subspace" + dk,
                  csg::bench::summarize({t_sub}), "ms", 1e3)
        .tolerance = 1.0;
    report
        .add_time("hierarchize_ms/poles" + dk, csg::bench::summarize({t_pole}),
                  "ms", 1e3)
        .tolerance = 1.0;
    report.add_counter("poles_speedup_vs_subspace" + dk, t_sub / t_pole, "x",
                       Better::kNeutral);
  }

  std::printf("\nboundary grid (Sec. 4.4), ns per point:\n%-4s %12s %14s "
              "%14s %10s\n",
              "d", "N points", "pointwise", "poles", "poles win");
  bool boundary_exact = true;
  for (dim_t d = 2; d <= 6; d += 2) {
    BoundaryStorage nodal(d, level);
    nodal.sample(workloads::boundary_polynomial(d).f);
    const double t_point =
        time_transform(nodal, &csg::testing::hierarchize_boundary_pointwise);
    const double t_pole = time_transform(nodal, &hierarchize);
    // Both directions from the same input, at 0 ULPs (+-0 equal).
    BoundaryStorage fwd = nodal, fwd_ref = nodal;
    hierarchize(fwd);
    csg::testing::hierarchize_boundary_pointwise(fwd_ref);
    BoundaryStorage inv = nodal, inv_ref = nodal;
    dehierarchize(inv);
    csg::testing::dehierarchize_boundary_pointwise(inv_ref);
    boundary_exact = boundary_exact && fwd.values() == fwd_ref.values() &&
                     inv.values() == inv_ref.values();
    const auto points = static_cast<double>(nodal.size());
    std::printf("%-4u %12llu %14.1f %14.1f %9.1fx\n", d,
                static_cast<unsigned long long>(nodal.size()),
                t_point / points * 1e9, t_pole / points * 1e9,
                t_point / t_pole);
    const std::string dk = "/d" + std::to_string(d);
    report
        .add_time("boundary/hierarchize_ns_per_point/pointwise" + dk,
                  csg::bench::summarize({t_point}), "ns", 1e9 / points)
        .tolerance = 1.0;
    report
        .add_time("boundary/hierarchize_ns_per_point/poles" + dk,
                  csg::bench::summarize({t_pole}), "ns", 1e9 / points)
        .tolerance = 1.0;
  }
  report.add_counter("exact/boundary_poles", boundary_exact ? 1 : 0, "bool",
                     Better::kMore);
  std::printf("boundary poles bit-identical to the pointwise walk: %s\n",
              boundary_exact ? "yes" : "NO");

  std::printf("\nreading: the pole transform removes every bijection call "
              "from the inner loop; the gp2idx arithmetic is what separates "
              "the three — exactly the cost the paper's Sec. 4.2 O(d) "
              "optimization minimizes.\n");
  csg::bench::finish_report(report, args);
  return 0;
}
