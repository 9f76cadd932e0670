// Extension experiment — slice decompression strategies for the Fig. 1
// visualization pipeline: per-pixel evaluation of the d-dimensional
// interpolant (optionally blocked, Sec. 4.3) vs restricting the compressed
// field to the slice plane once (restriction.hpp) and evaluating the
// resulting 2d sparse grid per pixel.
//
// The restriction costs one pass over the anchor's supported slab per frame
// ANCHOR (not per pixel), after which each pixel costs a 2d evaluation —
// orders of magnitude cheaper at d >= 4. This is the library-level answer to the paper's
// "high resolution demands of a smoothly-running visual data exploration
// application".
#include "bench_common.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/core/restriction.hpp"
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
  const auto level = static_cast<level_t>(args.get_int("--level", 7));
  const auto width = static_cast<std::size_t>(args.get_int("--width", 128));
  const auto height = static_cast<std::size_t>(args.get_int("--height", 128));

  csg::bench::print_header(
      "bench_ext_slicing: per-frame slice decompression — direct vs "
      "blocked vs restriction",
      "Fig. 1 pipeline, Sec. 4.3 blocking, plus the restriction operator "
      "(library extension)");
  std::printf("%zux%zu pixels per frame, level %u grids\n\n", width, height,
              level);

  Report report("bench_ext_slicing",
                "per-frame slice decompression: direct vs blocked vs "
                "restriction",
                "Fig. 1");
  report.set_param("level", static_cast<std::int64_t>(level));
  report.set_param("width", static_cast<std::int64_t>(width));
  report.set_param("height", static_cast<std::int64_t>(height));

  std::printf("%-4s %12s %14s %14s %14s %12s %12s\n", "d", "N points",
              "direct (ms)", "blocked (ms)", "restrict (ms)", "speedup",
              "max |diff|");
  for (dim_t d = 3; d <= 8; ++d) {
    const auto f = workloads::simulation_field(d);
    CompactStorage s(d, level);
    s.sample(f.f);
    hierarchize(s);

    const CoordVector anchor(d - 2, real_t{0.45});
    const DimVector<dim_t> kept{0, 1};
    std::vector<CoordVector> pixels;
    pixels.reserve(width * height);
    for (std::size_t r = 0; r < height; ++r)
      for (std::size_t c = 0; c < width; ++c) {
        CoordVector x(2);
        x[0] = static_cast<real_t>(c) / static_cast<real_t>(width - 1);
        x[1] = static_cast<real_t>(r) / static_cast<real_t>(height - 1);
        pixels.push_back(x);
      }
    std::vector<CoordVector> embedded;
    embedded.reserve(pixels.size());
    for (const CoordVector& x : pixels)
      embedded.push_back(embed_in_plane(d, kept, anchor, x));

    std::vector<real_t> direct_vals, blocked_vals, restricted_vals;
    const double t_direct = csg::bench::time_per_call_s(
        [&] { direct_vals = evaluate_many_blocked(s, embedded, 1); });
    const double t_blocked = csg::bench::time_per_call_s(
        [&] { blocked_vals = evaluate_many_blocked(s, embedded, 64); });
    const double t_restrict = csg::bench::time_per_call_s([&] {
      const CompactStorage slice = restrict_to_plane(s, kept, anchor);
      restricted_vals = evaluate_many_blocked(slice, pixels, 64);
    });

    real_t max_diff = 0;
    for (std::size_t p = 0; p < pixels.size(); ++p)
      max_diff = std::max(max_diff,
                          std::abs(restricted_vals[p] - direct_vals[p]));

    std::printf("%-4u %12llu %14.2f %14.2f %14.2f %11.1fx %12.2e\n", d,
                static_cast<unsigned long long>(s.size()), t_direct * 1e3,
                t_blocked * 1e3, t_restrict * 1e3, t_direct / t_restrict,
                max_diff);
    const std::string dk = "/d" + std::to_string(d);
    report
        .add_time("frame_ms/direct" + dk, csg::bench::summarize({t_direct}),
                  "ms", 1e3)
        .tolerance = 1.0;
    report
        .add_time("frame_ms/blocked" + dk, csg::bench::summarize({t_blocked}),
                  "ms", 1e3)
        .tolerance = 1.0;
    report
        .add_time("frame_ms/restriction" + dk,
                  csg::bench::summarize({t_restrict}), "ms", 1e3)
        .tolerance = 1.0;
    report.add_counter("restriction_speedup" + dk, t_direct / t_restrict, "x",
                       Better::kNeutral);
    report.add_counter("max_abs_diff" + dk, static_cast<double>(max_diff),
                       "abs", Better::kLess)
        .tolerance = 1.0;
  }
  std::printf(
      "\nreading: restriction amortizes the d-dimensional work once per "
      "frame anchor; per-pixel cost drops to the 2d interpolant. Identical "
      "pixels (max |diff| at round-off) — the operator is exact.\n");
  csg::bench::finish_report(report, args);
  return 0;
}
