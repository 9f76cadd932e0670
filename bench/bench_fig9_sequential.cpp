// Experiments E3/E4 — Fig. 9a/9b: sequential runtime of hierarchization and
// evaluation per data structure, as a function of the number of dimensions.
//
// The paper's i7-920 runs level-11 grids (up to 700 s per hierarchization
// for the std::map); the harness defaults to level 6 so the whole sweep
// finishes in well under a minute while preserving the ordering and growth
// the figure shows. Baselines run the paper's original recursive algorithms
// (Sec. 3); the compact structure runs its production hierarchization (the
// pole sweep, bit-identical to Alg. 6) and the batched Alg. 7.
#include "bench_common.hpp"
#include "csg/baselines/generic_algorithms.hpp"
#include "csg/baselines/map_storages.hpp"
#include "csg/baselines/prefix_tree_native.hpp"
#include "csg/baselines/prefix_tree_storage.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace {

using namespace csg;
using namespace csg::baselines;
using csg::bench::Args;
using csg::bench::Better;
using csg::bench::Report;

struct Timings {
  double hierarchize_s;
  double eval_per_point_s;
};

template <GridStorage S>
Timings run(dim_t d, level_t n, std::size_t eval_points) {
  const auto f = workloads::parabola_product(d);
  // Hierarchization mutates the storage in place, so repeating it means
  // rebuilding; only the transform itself is accumulated, and the cycle
  // repeats until at least 50 ms of it was observed. At paper shapes one
  // call exceeds the window and this degenerates to a single timing.
  constexpr double kMinSeconds = 0.05;
  auto transform = [](S& s) {
    if constexpr (std::is_same_v<S, CompactStorage>)
      hierarchize(s);
    else if constexpr (std::is_same_v<S, PrefixTreeStorage>)
      hierarchize_native(s);  // child-pointer descent, paper-style
    else
      hierarchize_recursive(s);
  };
  double h_accum = 0;
  int h_calls = 0;
  do {
    S rebuilt(d, n);
    sample(rebuilt, f.f);
    h_accum += csg::bench::time_s([&] { transform(rebuilt); });
    ++h_calls;
  } while (h_accum < kMinSeconds);
  const double h = h_accum / h_calls;

  S storage(d, n);
  sample(storage, f.f);
  transform(storage);
  const auto pts = workloads::uniform_points(d, eval_points, 99);
  double e;
  if constexpr (std::is_same_v<S, CompactStorage>) {
    // The compact structure's batched query path: Sec. 4.3 blocking over
    // the shared plan, which runs the SoA batch kernel (DESIGN.md §14).
    e = csg::bench::time_per_call_s(
        [&] { (void)evaluate_many_blocked(storage, pts, 64); }, kMinSeconds);
  } else if constexpr (std::is_same_v<S, PrefixTreeStorage>) {
    e = csg::bench::time_per_call_s(
        [&] {
          for (const CoordVector& x : pts) (void)evaluate_native(storage, x);
        },
        kMinSeconds);
  } else {
    e = csg::bench::time_per_call_s(
        [&] { (void)evaluate_many_recursive(storage, pts); }, kMinSeconds);
  }
  return {h, e / static_cast<double>(eval_points)};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto level = static_cast<level_t>(args.get_int("--level", 6));
  const auto points = static_cast<std::size_t>(args.get_int("--points", 2000));
  const auto d_lo = static_cast<dim_t>(args.get_int("--dmin", 5));
  const auto d_hi = static_cast<dim_t>(args.get_int("--dmax", 10));

  csg::bench::print_header(
      "bench_fig9_sequential: sequential hierarchization & evaluation "
      "runtimes per data structure",
      "Fig. 9a (hierarchization) and Fig. 9b (time per evaluation), i7-920");
  std::printf("level %u grids, %zu evaluation points per dimension count\n\n",
              level, points);

  Report report("bench_fig9_sequential",
                "sequential hierarchization and evaluation runtimes per data "
                "structure",
                "Fig. 9a/9b");
  report.set_param("level", static_cast<std::int64_t>(level));
  report.set_param("points", static_cast<std::int64_t>(points));
  report.set_param("dims_min", static_cast<std::int64_t>(d_lo));
  report.set_param("dims_max", static_cast<std::int64_t>(d_hi));

  const char* names[5] = {"compact", "prefix_tree", "enhanced_hash",
                          "enhanced_map", "std_map"};
  std::vector<std::array<Timings, 5>> results;

  for (dim_t d = d_lo; d <= d_hi; ++d) {
    std::array<Timings, 5> row;
    row[0] = run<CompactStorage>(d, level, points);
    row[1] = run<PrefixTreeStorage>(d, level, points);
    row[2] = run<EnhancedHashStorage>(d, level, points);
    row[3] = run<EnhancedMapStorage>(d, level, points);
    row[4] = run<StdMapStorage>(d, level, points);
    results.push_back(row);
    // Hierarchization mutates the storage in place, so each timing is one
    // observation — recorded as a single-sample time metric with a wide
    // noise tolerance.
    for (int s = 0; s < 5; ++s) {
      const std::string base(names[s]);
      const std::string dk = "/d" + std::to_string(d);
      const Timings& t = row[static_cast<std::size_t>(s)];
      report
          .add_time(base + "/hierarchize_s" + dk,
                    csg::bench::summarize({t.hierarchize_s}), "s")
          .tolerance = 1.0;
      report
          .add_time(base + "/eval_us_per_point" + dk,
                    csg::bench::summarize({t.eval_per_point_s}), "us", 1e6)
          .tolerance = 1.0;
    }
  }

  std::printf("Fig. 9a analogue: sequential hierarchization time (s)\n");
  std::printf("%-15s", "structure");
  for (dim_t d = d_lo; d <= d_hi; ++d) std::printf("      d=%-4u", d);
  std::printf("\n");
  for (int s = 0; s < 5; ++s) {
    std::printf("%-15s", names[s]);
    for (std::size_t k = 0; k < results.size(); ++k)
      std::printf("  %10.4f", results[k][static_cast<std::size_t>(s)].hierarchize_s);
    std::printf("\n");
  }

  std::printf("\nFig. 9b analogue: time per evaluation (us)\n");
  std::printf("%-15s", "structure");
  for (dim_t d = d_lo; d <= d_hi; ++d) std::printf("      d=%-4u", d);
  std::printf("\n");
  for (int s = 0; s < 5; ++s) {
    std::printf("%-15s", names[s]);
    for (std::size_t k = 0; k < results.size(); ++k)
      std::printf("  %10.3f",
                  results[k][static_cast<std::size_t>(s)].eval_per_point_s * 1e6);
    std::printf("\n");
  }

  std::printf("\nshape checks vs the paper:\n");
  const auto& last = results.back();
  // The compact column runs the pole sweep, which also beats the prefix
  // tree's child-pointer descent (last[1]), so the check covers all four.
  const bool compact_fastest_hier =
      last[0].hierarchize_s <= last[1].hierarchize_s &&
      last[0].hierarchize_s <= last[2].hierarchize_s &&
      last[0].hierarchize_s <= last[3].hierarchize_s &&
      last[0].hierarchize_s <= last[4].hierarchize_s;
  std::printf("  compact fastest hierarchization at d=%u: %s\n", d_hi,
              compact_fastest_hier ? "yes" : "NO");
  // The paper's Fig. 9b has the prefix tree "very close to the performance
  // obtained with our data structure" — that held for the per-point walk.
  // The compact column now runs the batched SoA path (blocking + vectorized
  // kernel, DESIGN.md §14), which the pointer-chasing trie cannot match, so
  // the shape check asks for compact strictly ahead of the trie and both
  // maps instead of "within 2x".
  const bool eval_shape_ok =
      last[0].eval_per_point_s <= last[1].eval_per_point_s &&
      last[0].eval_per_point_s < last[3].eval_per_point_s &&
      last[0].eval_per_point_s < last[4].eval_per_point_s;
  std::printf("  compact (SoA batched) evaluation ahead of prefix_tree and "
              "both maps at d=%u: %s\n",
              d_hi, eval_shape_ok ? "yes" : "NO");
  const bool std_map_slowest = last[4].hierarchize_s >= last[0].hierarchize_s &&
                               last[4].hierarchize_s >= last[1].hierarchize_s;
  std::printf("  std_map slowest hierarchization at d=%u: %s\n", d_hi,
              std_map_slowest ? "yes" : "NO");
  // Shape checks depend on the relative speed of small timings — recorded
  // as neutral counters (informational, never gated).
  report.add_counter("shape/compact_fastest_hierarchization",
                     compact_fastest_hier ? 1 : 0, "bool", Better::kNeutral);
  report.add_counter("shape/compact_eval_ahead", eval_shape_ok ? 1 : 0,
                     "bool", Better::kNeutral);
  report.add_counter("shape/std_map_slowest_hierarchization",
                     std_map_slowest ? 1 : 0, "bool", Better::kNeutral);
  csg::bench::finish_report(report, args);
  return 0;
}
