// csgtool — command-line front end for compact sparse grid files (.csg).
//
// The Fig. 1 pipeline as a shell workflow:
//
//   csgtool create --dims 4 --level 7 --function simulation_field -o f.csg
//   csgtool info f.csg
//   csgtool eval f.csg 0.3 0.5 0.2 0.9
//   csgtool evalbatch f.csg --points 10000 --threads 4
//   csgtool integrate f.csg
//   csgtool slice f.csg --dimx 0 --dimy 1 --anchor 0.5 --pgm slice.pgm
//
// `create` samples one of the built-in test functions (stand-ins for a
// simulation code's output) and stores the hierarchized coefficients;
// `slice` decompresses an axis-aligned 2d slice to a PGM image or an
// ASCII preview — the visualization front-end's per-frame request.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "csg/core.hpp"
#include "csg/io/serialize.hpp"
#include "csg/net/client.hpp"
#include "csg/net/server.hpp"
#include "csg/net/transport.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/serve/grid_registry.hpp"
#include "csg/serve/service.hpp"
#include "csg/testing/bijection.hpp"
#include "csg/testing/generators.hpp"
#include "csg/testing/oracles.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace {

using namespace csg;

/// "g<index>", built append-style: GCC 12's -Wrestrict false-fires on the
/// inlined literal+rvalue-string operator+ chain under CSG_HARDEN.
std::string grid_name(long g) {
  std::string name = "g";
  name += std::to_string(g);
  return name;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  csgtool create --dims D --level N --function NAME -o F.csg\n"
               "  csgtool info F.csg\n"
               "  csgtool eval F.csg x1 ... xd\n"
               "  csgtool evalbatch F.csg [--points K] [--block B]\n"
               "                    [--threads T] [--seed S]\n"
               "  csgtool integrate F.csg\n"
               "  csgtool slice F.csg [--dimx A] [--dimy B] [--anchor V]\n"
               "                      [--width W] [--height H] [--pgm OUT]\n"
               "  csgtool compress F.csg --epsilon E -o F.csgt\n"
               "  csgtool restrict F.csg --keep A,B[,...] --anchor V -o G.csg\n"
               "  csgtool selfcheck [--dmax D] [--nmax N] [--budget SEC]\n"
               "                    [--trials K] [--seed S]\n"
               "  csgtool serve-bench [--dims D] [--level N] [--grids G]\n"
               "                      [--requests R] [--producers P]\n"
               "                      [--workers W] [--queue Q] [--batch B]\n"
               "                      [--shards S (0 = auto)]\n"
               "                      [--policy reject|block]\n"
               "                      [--deadline-ms M] [--seed S]\n"
               "  csgtool net-serve [--port P] [--dims D] [--level N]\n"
               "                    [--grids G] [--workers W] [--queue Q]\n"
               "                    [--batch B]\n"
               "                    [--shards S (0 = auto)] [--in-flight F]\n"
               "                    [--max-conns C] [--max-points K]\n"
               "                    [--idle-exit-ms I]\n"
               "  csgtool net-bench [--transport loopback|tcp] [--port P]\n"
               "                    [--dims D] [--level N] [--grids G]\n"
               "                    [--requests R] [--clients C] [--points K]\n"
               "                    [--workers W] [--queue Q] [--batch B]\n"
               "                    [--shards S (0 = auto)] [--in-flight F]\n"
               "                    [--deadline-ms M] [--seed S]\n"
               "functions: parabola_product gaussian_bump oscillatory\n"
               "           coarse_dlinear simulation_field\n");
  return 2;
}

const char* flag_value(int argc, char** argv, const char* flag,
                       const char* fallback) {
  for (int k = 0; k + 1 < argc; ++k)
    if (std::strcmp(argv[k], flag) == 0) return argv[k + 1];
  return fallback;
}

/// A real-valued token: the whole token read by strtod, and finite. Any
/// other token reads as NaN, so every range check below is written to
/// fail on NaN (e.g. !(x >= 0 && x <= 1)) and rejects it.
double parse_real(const char* token) {
  char* end = nullptr;
  const double x = std::strtod(token, &end);
  return end != token && *end == '\0' && std::isfinite(x)
             ? x
             : std::numeric_limits<double>::quiet_NaN();
}

int cmd_create(int argc, char** argv) {
  const auto d = static_cast<dim_t>(std::atoi(flag_value(argc, argv, "--dims", "3")));
  const auto n =
      static_cast<level_t>(std::atoi(flag_value(argc, argv, "--level", "6")));
  const std::string name = flag_value(argc, argv, "--function", "simulation_field");
  const std::string out = flag_value(argc, argv, "-o", "grid.csg");
  if (d < 1 || d > kMaxDim || n < 1 || n > kMaxLevel) return usage();

  const workloads::TestFunction* chosen = nullptr;
  const auto suite = workloads::zero_boundary_suite(d);
  for (const auto& f : suite)
    if (f.name == name) chosen = &f;
  if (chosen == nullptr) {
    std::fprintf(stderr, "csgtool: unknown function '%s'\n", name.c_str());
    return usage();
  }

  CompactStorage storage(d, n);
  storage.sample(chosen->f);
  hierarchize(storage);
  io::save_file(storage, out);
  std::printf("wrote %s: d=%u level=%u, %llu points, %zu bytes\n",
              out.c_str(), d, n,
              static_cast<unsigned long long>(storage.size()),
              io::serialized_bytes(storage));
  return 0;
}

int cmd_info(const char* path) {
  const CompactStorage s = io::load_file(path);
  const RegularSparseGrid& g = s.grid();
  std::printf("%s:\n", path);
  std::printf("  dimension        %u\n", g.dim());
  std::printf("  level            %u\n", g.level());
  std::printf("  points           %llu\n",
              static_cast<unsigned long long>(g.num_points()));
  std::printf("  memory           %.3f MB\n",
              static_cast<double>(s.memory_bytes()) / 1e6);
  std::printf("  integral         %.6g\n", integrate(s));
  std::printf("  max |surplus| per level group:\n");
  const auto per_group = max_surplus_per_group(s);
  for (level_t j = 0; j < g.level(); ++j)
    std::printf("    |l|=%u  %12.4e   (%llu subspaces, %llu points)\n", j,
                per_group[j],
                static_cast<unsigned long long>(g.subspaces_in_group(j)),
                static_cast<unsigned long long>(g.group_size(j)));
  return 0;
}

int cmd_eval(const char* path, int coords_argc, char** coords_argv) {
  const CompactStorage s = io::load_file(path);
  if (static_cast<dim_t>(coords_argc) != s.grid().dim()) {
    std::fprintf(stderr, "csgtool: expected %u coordinates\n", s.grid().dim());
    return 2;
  }
  CoordVector x(s.grid().dim());
  for (dim_t t = 0; t < x.size(); ++t) {
    x[t] = parse_real(coords_argv[t]);
    if (!(x[t] >= 0 && x[t] <= 1)) {
      std::fprintf(stderr, "csgtool: coordinates must be in [0,1]\n");
      return 2;
    }
  }
  const ValueAndGradient vg = evaluate_with_gradient(s, x);
  std::printf("value    %.12g\n", vg.value);
  std::printf("gradient");
  for (dim_t t = 0; t < x.size(); ++t) std::printf(" %.6g", vg.gradient[t]);
  std::printf("\n");
  return 0;
}

int cmd_evalbatch(const char* path, int argc, char** argv) {
  const CompactStorage s = io::load_file(path);
  // Counts are parsed signed so that a negative one is rejected below
  // instead of wrapping to a huge size_t.
  const long long count =
      std::atoll(flag_value(argc, argv, "--points", "10000"));
  const long long block = std::atoll(flag_value(argc, argv, "--block", "64"));
  const auto seed = static_cast<std::uint32_t>(
      std::atoi(flag_value(argc, argv, "--seed", "17")));
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads =
      std::atoi(flag_value(argc, argv, "--threads",
                           std::to_string(hw).c_str()));
  if (count < 1 || block < 1 || threads < 1) return usage();

  const auto pts = workloads::uniform_points(
      s.grid().dim(), static_cast<std::size_t>(count), seed);
  // The batched query path of the Fig. 1 pipeline: the grid's plan, threads
  // over point blocks, disjoint output ranges. The plan is built before the
  // clock starts.
  const EvaluationPlan& plan = s.grid().plan();
  const auto start = std::chrono::steady_clock::now();
  const auto values = parallel::omp_evaluate_many_blocked(
      s, pts, static_cast<std::size_t>(block), threads);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  real_t sum = 0, lo = values[0], hi = values[0];
  for (const real_t v : values) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::printf("evaluated %zu points (plan: %zu subspaces, %.1f KB; "
              "block %lld, %d thread(s))\n",
              values.size(), plan.subspace_count(),
              static_cast<double>(plan.memory_bytes()) / 1e3, block,
              threads);
  std::printf("  time       %.4f s  (%.0f evals/s)\n", secs,
              static_cast<double>(values.size()) / secs);
  std::printf("  mean       %.6g\n",
              sum / static_cast<real_t>(values.size()));
  std::printf("  range      [%.6g, %.6g]\n", lo, hi);
  return 0;
}

int cmd_integrate(const char* path) {
  const CompactStorage s = io::load_file(path);
  std::printf("%.12g\n", integrate(s));
  return 0;
}

int cmd_compress(const char* path, int argc, char** argv) {
  const CompactStorage s = io::load_file(path);
  const real_t eps = parse_real(flag_value(argc, argv, "--epsilon", "1e-4"));
  const std::string out = flag_value(argc, argv, "-o", "grid.csgt");
  if (!(eps >= 0)) return usage();
  const TruncatedStorage t(s, eps);
  io::save_file(t, out);
  std::printf("wrote %s: kept %zu of %llu coefficients (%.1f%% of dense "
              "payload), guaranteed max error %.3e\n",
              out.c_str(), t.kept_count(),
              static_cast<unsigned long long>(s.size()),
              t.payload_ratio() * 100, t.error_bound());
  return 0;
}

int cmd_restrict(const char* path, int argc, char** argv) {
  const CompactStorage s = io::load_file(path);
  const dim_t d = s.grid().dim();
  const std::string keep_spec = flag_value(argc, argv, "--keep", "0,1");
  const real_t anchor_value =
      parse_real(flag_value(argc, argv, "--anchor", "0.5"));
  const std::string out = flag_value(argc, argv, "-o", "slice.csg");

  DimVector<dim_t> kept;
  for (std::size_t pos = 0; pos < keep_spec.size();) {
    const std::size_t comma = keep_spec.find(',', pos);
    const std::string tok = keep_spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    kept.push_back(static_cast<dim_t>(std::atoi(tok.c_str())));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (kept.empty() || kept.size() >= d) return usage();
  for (dim_t k = 0; k < kept.size(); ++k)
    if (kept[k] >= d || (k > 0 && kept[k] <= kept[k - 1])) return usage();
  if (!(anchor_value >= 0 && anchor_value <= 1)) return usage();

  const CompactStorage slice = restrict_to_plane(
      s, kept, CoordVector(d - kept.size(), anchor_value));
  io::save_file(slice, out);
  std::printf("wrote %s: restricted %u-d grid to the %u kept dimension(s) "
              "at anchor %.3f (%llu -> %llu points)\n",
              out.c_str(), d, kept.size(), anchor_value,
              static_cast<unsigned long long>(s.size()),
              static_cast<unsigned long long>(slice.size()));
  return 0;
}

int cmd_slice(const char* path, int argc, char** argv) {
  const CompactStorage s = io::load_file(path);
  const dim_t d = s.grid().dim();
  const auto dim_x = static_cast<dim_t>(std::atoi(flag_value(argc, argv, "--dimx", "0")));
  const auto dim_y = static_cast<dim_t>(std::atoi(flag_value(argc, argv, "--dimy", "1")));
  const real_t anchor = parse_real(flag_value(argc, argv, "--anchor", "0.5"));
  // Signed, like evalbatch's counts: a negative size must not wrap.
  const long long width_arg =
      std::atoll(flag_value(argc, argv, "--width", "64"));
  const long long height_arg =
      std::atoll(flag_value(argc, argv, "--height", "32"));
  const char* pgm = flag_value(argc, argv, "--pgm", nullptr);
  if (d < 2 || dim_x >= d || dim_y >= d || dim_x == dim_y || width_arg < 1 ||
      height_arg < 1 || !(anchor >= 0 && anchor <= 1))
    return usage();
  const auto width = static_cast<std::size_t>(width_arg);
  const auto height = static_cast<std::size_t>(height_arg);

  const auto pts = workloads::slice_points(CoordVector(d, anchor), dim_x,
                                           dim_y, width, height);
  // Per-frame slice decompression is a batched query: the grid's plan,
  // walked blocked.
  const auto values = evaluate_many_blocked(s, pts, 64);
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  const real_t lo = *lo_it, hi = *hi_it;
  const real_t span = hi > lo ? hi - lo : real_t{1};

  if (pgm != nullptr) {
    std::ofstream out(pgm, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "csgtool: cannot open %s\n", pgm);
      return 1;
    }
    out << "P5\n" << width << " " << height << "\n255\n";
    for (std::size_t r = height; r-- > 0;)
      for (std::size_t c = 0; c < width; ++c) {
        const auto byte = static_cast<unsigned char>(
            (values[r * width + c] - lo) / span * 255.0);
        out.put(static_cast<char>(byte));
      }
    std::printf("wrote %s (%zux%zu, range [%.4g, %.4g])\n", pgm, width,
                height, lo, hi);
  } else {
    static const char* shades = " .:-=+*#%@";
    for (std::size_t r = height; r-- > 0;) {
      for (std::size_t c = 0; c < width; ++c) {
        const real_t t = (values[r * width + c] - lo) / span;
        std::putchar(shades[static_cast<int>(t * 9.999)]);
      }
      std::putchar('\n');
    }
  }
  return 0;
}

/// N(d, n) if it fits 64-bit flat indices, -1 otherwise — the feasibility
/// probe run before constructing a grid, whose constructor aborts on
/// overflow by contract.
long long grid_points_if_feasible(dim_t d, level_t n) {
  const BinomialTable binmat(d - 1 + n);
  unsigned __int128 total = 0;
  for (level_t j = 0; j < n; ++j) {
    total += static_cast<unsigned __int128>(num_subspaces(d, j, binmat)) << j;
    if (total >= (static_cast<unsigned __int128>(1) << 62)) return -1;
  }
  return static_cast<long long>(total);
}

// Machine verification of the gp2idx <-> idx2gp bijection (Sec. 4, Alg. 5):
// exhaustive for every (d <= dmax, n <= nmax) within the time budget,
// randomized spot checks for every higher dimension up to kMaxDim. The
// paper's whole storage scheme rests on this map being exact, so the check
// is a first-class subcommand rather than test-only code. Every shape of
// the rectangle small enough then runs the differential oracle battery
// (testing::check_all) on random coefficients, so the transforms built on
// the map are checked against their reference implementations too.
int cmd_selfcheck(int argc, char** argv) {
  const auto dmax =
      static_cast<dim_t>(std::atoi(flag_value(argc, argv, "--dmax", "6")));
  const auto nmax =
      static_cast<level_t>(std::atoi(flag_value(argc, argv, "--nmax", "8")));
  const double budget = parse_real(flag_value(argc, argv, "--budget", "60"));
  // Signed, so that a negative count is rejected instead of wrapping.
  const long long trials_arg =
      std::atoll(flag_value(argc, argv, "--trials", "20000"));
  const auto seed = static_cast<std::uint64_t>(
      std::atoll(flag_value(argc, argv, "--seed", "1")));
  if (dmax < 1 || dmax > kMaxDim || nmax < 1 || nmax > kMaxLevel ||
      !(budget > 0) || trials_arg < 1)
    return usage();
  const auto trials = static_cast<std::uint64_t>(trials_arg);

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::uint64_t exhaustive_points = 0, sampled_points = 0;
  unsigned exhaustive_shapes = 0, sampled_shapes = 0, skipped_shapes = 0;
  std::mt19937_64 rng(seed);
  bool out_of_time = false;
  // Sampled trials run in chunks, so that a huge --trials stops at the
  // budget like everything else (out_of_time, exit 3).
  auto sample = [&](const RegularSparseGrid& grid) {
    testing::BijectionReport total;
    for (std::uint64_t done = 0; done < trials && total.ok;) {
      if (elapsed() > budget) {
        out_of_time = true;
        break;
      }
      const std::uint64_t chunk = std::min<std::uint64_t>(trials - done, 4096);
      const auto report = testing::verify_bijection_sampled(grid, rng, chunk);
      total.ok = report.ok;
      total.detail = report.detail;
      total.points_checked += report.points_checked;
      done += chunk;
    }
    return total;
  };

  for (dim_t d = 1; d <= dmax && !out_of_time; ++d) {
    std::uint64_t points_for_d = 0;
    for (level_t n = 1; n <= nmax; ++n) {
      if (elapsed() > budget) {
        out_of_time = true;
        break;
      }
      const long long npts = grid_points_if_feasible(d, n);
      if (npts < 0) {
        ++skipped_shapes;
        continue;
      }
      const RegularSparseGrid grid(d, n);
      // Exhaustive enumeration for everything within reach; very large
      // shapes inside the rectangle degrade to dense sampling so one huge
      // (d, n) cannot eat the whole budget.
      if (static_cast<std::uint64_t>(npts) <= 20'000'000ull) {
        const auto report = testing::verify_bijection_exhaustive(grid);
        if (!report.ok) {
          std::fprintf(stderr, "selfcheck FAILED at d=%u n=%u: %s\n", d, n,
                       report.detail.c_str());
          return 1;
        }
        exhaustive_points += report.points_checked;
        points_for_d += report.points_checked;
        ++exhaustive_shapes;
      } else {
        const auto report = sample(grid);
        if (!report.ok) {
          std::fprintf(stderr, "selfcheck FAILED at d=%u n=%u: %s\n", d, n,
                       report.detail.c_str());
          return 1;
        }
        sampled_points += report.points_checked;
        ++sampled_shapes;
      }
    }
    std::printf("  d=%-2u  levels 1..%u  %12llu points exhaustive\n", d, nmax,
                static_cast<unsigned long long>(points_for_d));
  }

  // Spot checks above the exhaustive rectangle: random flat indices on the
  // largest feasible level per dimension, up to the hard dimension cap.
  for (dim_t d = dmax + 1; d <= kMaxDim && !out_of_time; ++d) {
    if (elapsed() > budget) {
      out_of_time = true;
      break;
    }
    level_t n = nmax;
    while (n > 1 && grid_points_if_feasible(d, n) < 0) --n;
    const RegularSparseGrid grid(d, n);
    const auto report = sample(grid);
    if (!report.ok) {
      std::fprintf(stderr, "selfcheck FAILED at d=%u n=%u: %s\n", d, n,
                   report.detail.c_str());
      return 1;
    }
    sampled_points += report.points_checked;
    ++sampled_shapes;
    std::printf("  d=%-2u  level %u       %12llu points sampled (of %lld)\n",
                d, n, static_cast<unsigned long long>(report.points_checked),
                grid_points_if_feasible(d, n));
  }

  // Transform oracles on every shape of the rectangle up to this size;
  // larger shapes add run time, not coverage of a different code path.
  constexpr long long kOracleMaxPoints = 20'000;
  unsigned oracle_shapes = 0;
  std::uint64_t oracle_comparisons = 0;
  for (dim_t d = 1; d <= dmax && !out_of_time; ++d) {
    for (level_t n = 1; n <= nmax; ++n) {
      if (elapsed() > budget) {
        out_of_time = true;
        break;
      }
      const long long npts = grid_points_if_feasible(d, n);
      if (npts < 0 || npts > kOracleMaxPoints) break;
      const CompactStorage values = testing::random_coefficients(rng, d, n);
      const testing::OracleResult r = testing::check_all(values, rng);
      if (!r.ok) {
        std::fprintf(stderr, "selfcheck FAILED at d=%u n=%u: %s\n", d, n,
                     r.detail.c_str());
        return 1;
      }
      oracle_comparisons += r.comparisons;
      ++oracle_shapes;
    }
  }
  std::printf("  transform oracles: %u shapes, %llu comparisons\n",
              oracle_shapes,
              static_cast<unsigned long long>(oracle_comparisons));

  std::printf(
      "selfcheck %s: %llu points verified exhaustively (%u shapes), "
      "%llu sampled trials (%u shapes), %u shapes beyond 64-bit skipped, "
      "%.1f s\n",
      out_of_time ? "INCOMPLETE (budget exhausted)" : "OK",
      static_cast<unsigned long long>(exhaustive_points), exhaustive_shapes,
      static_cast<unsigned long long>(sampled_points), sampled_shapes,
      skipped_shapes, elapsed());
  return out_of_time ? 3 : 0;
}

/// Shared grid setup of the serving commands: G hierarchized grids named
/// g0..g{G-1}, all of the same (d, n) shape.
void register_grids(serve::GridRegistry& registry, int grids, dim_t d,
                    level_t n) {
  for (int g = 0; g < grids; ++g) {
    CompactStorage s(d, n);
    s.sample(workloads::simulation_field(d).f);
    hierarchize(s);
    registry.add(grid_name(g), std::move(s));
  }
}

/// The flags every serving command shares (--workers, --queue, --batch,
/// --shards) with that command's --queue default; nullopt when one is out
/// of range, or when argv is not a list of `--flag value` pairs whose
/// flags are the shared ones or the command's `own`.
std::optional<serve::ServiceOptions> service_flags(
    int argc, char** argv, const char* queue,
    std::initializer_list<std::string_view> own) {
  if (argc % 2 != 0) return std::nullopt;
  for (int k = 0; k < argc; k += 2) {
    const std::string_view flag = argv[k];
    if (flag != "--workers" && flag != "--queue" && flag != "--batch" &&
        flag != "--shards" &&
        std::find(own.begin(), own.end(), flag) == own.end())
      return std::nullopt;
  }
  serve::ServiceOptions opts;
  opts.workers = std::atoi(flag_value(argc, argv, "--workers", "2"));
  opts.queue_capacity = static_cast<std::size_t>(
      std::atoll(flag_value(argc, argv, "--queue", queue)));
  opts.max_batch_points = static_cast<std::size_t>(
      std::atoll(flag_value(argc, argv, "--batch", "64")));
  const long shards = std::atol(flag_value(argc, argv, "--shards", "0"));
  opts.shard_count = static_cast<std::size_t>(shards);
  if (opts.workers < 1 || opts.queue_capacity < 1 ||
      opts.max_batch_points < 1 || shards < 0)
    return std::nullopt;
  return opts;
}

/// The latency report line of the load generators: p50/p95/p99/max over
/// every thread's samples (0 for an empty run).
void print_latency(const std::vector<std::vector<double>>& lat_us,
                   const char* suffix) {
  std::vector<double> all;
  for (const auto& lat : lat_us) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  const auto pct = [&](double q) {
    return all.empty()
               ? 0.0
               : all[std::min(all.size() - 1,
                              static_cast<std::size_t>(
                                  q * static_cast<double>(all.size())))];
  };
  std::printf("  latency    p50 %.0f us, p95 %.0f us, p99 %.0f us, "
              "max %.0f us%s\n",
              pct(0.50), pct(0.95), pct(0.99), all.empty() ? 0.0 : all.back(),
              suffix);
}

// Closed-loop load generator over an in-process EvalService: G grids of the
// same shape, P producer threads each submitting its share of R requests and
// waiting for every future before issuing the next (so the offered load is
// bounded by P, like a pool of synchronous RPC clients). Reports end-to-end
// latency percentiles, throughput, and the service's batching counters.
int cmd_serve_bench(int argc, char** argv) {
  const auto d = static_cast<dim_t>(std::atoi(flag_value(argc, argv, "--dims", "3")));
  const auto n =
      static_cast<level_t>(std::atoi(flag_value(argc, argv, "--level", "5")));
  const int grids = std::atoi(flag_value(argc, argv, "--grids", "4"));
  const long requests = std::atol(flag_value(argc, argv, "--requests", "2000"));
  const int producers = std::atoi(flag_value(argc, argv, "--producers", "4"));
  const auto seed = static_cast<std::uint32_t>(
      std::atoi(flag_value(argc, argv, "--seed", "29")));
  const std::string policy = flag_value(argc, argv, "--policy", "reject");
  const long deadline_ms =
      std::atol(flag_value(argc, argv, "--deadline-ms", "0"));
  auto parsed = service_flags(argc, argv, "1024",
                              {"--dims", "--level", "--grids", "--requests",
                               "--producers", "--seed", "--policy",
                               "--deadline-ms"});
  if (!parsed || d < 1 || d > kMaxDim || n < 1 || n > kMaxLevel ||
      grids < 1 || requests < 1 || producers < 1 || deadline_ms < 0 ||
      (policy != "reject" && policy != "block"))
    return usage();
  serve::ServiceOptions& opts = *parsed;
  opts.default_deadline = std::chrono::milliseconds(deadline_ms);
  opts.overflow = policy == "block" ? serve::OverflowPolicy::kBlock
                                    : serve::OverflowPolicy::kReject;

  serve::GridRegistry registry;
  register_grids(registry, grids, d, n);
  serve::EvalService service(registry, opts);
  std::printf("serve-bench: %d grid(s) d=%u level=%u (%.1f KB registry), "
              "%ld requests, %d producer(s), %zu shard(s) x %d worker(s), "
              "queue %zu, batch %zu, policy %s\n",
              grids, d, n, static_cast<double>(registry.memory_bytes()) / 1e3,
              requests, producers, service.shard_count(), opts.workers,
              opts.queue_capacity, opts.max_batch_points, policy.c_str());

  std::vector<std::vector<double>> lat_us(
      static_cast<std::size_t>(producers));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p)
    threads.emplace_back([&, p] {
      const long share = requests / producers +
                         (p < requests % producers ? 1 : 0);
      const auto pts = workloads::uniform_points(
          d, static_cast<std::size_t>(std::max(share, 1l)),
          seed + static_cast<std::uint32_t>(p));
      auto& lat = lat_us[static_cast<std::size_t>(p)];
      lat.reserve(static_cast<std::size_t>(share));
      for (long k = 0; k < share; ++k) {
        const std::string grid = grid_name((p + k) % grids);
        const auto t0 = std::chrono::steady_clock::now();
        auto fut = service.submit(grid, pts[static_cast<std::size_t>(k)]);
        (void)fut.get();
        lat.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
      }
    });
  for (std::thread& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.stop();

  const auto st = service.stats();
  std::printf("  throughput %.0f req/s (%ld requests in %.3f s)\n",
              static_cast<double>(requests) / secs, requests, secs);
  print_latency(lat_us, "");
  std::printf("  batches    %llu formed, mean %.2f points, max %llu\n",
              static_cast<unsigned long long>(st.batches_formed),
              st.mean_batch(), static_cast<unsigned long long>(st.max_batch));
  std::printf("  outcomes   %llu ok, %llu rejected, %llu timed out\n",
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.timed_out));
  std::size_t busy_shards = 0;
  std::uint64_t deepest = 0;
  for (const auto& sh : st.shards) {
    if (sh.submits > 0) ++busy_shards;
    deepest = std::max(deepest, sh.max_queue_depth);
  }
  std::printf("  shards     %zu of %zu took submissions, deepest queue %llu\n",
              busy_shards, st.shards.size(),
              static_cast<unsigned long long>(deepest));
  // Closed-loop producers never outrun the queue; anything other than R
  // completions means the service misbehaved.
  return st.completed == static_cast<std::uint64_t>(requests) ? 0 : 1;
}

/// One report line per counter block, every counter under its declared name.
template <typename Block>
void print_counters(const std::string& label, const Block& block) {
  std::printf("  %-10s", label.c_str());
  const char* sep = " ";
  Block::fields(
      [&sep](const char* name, std::uint64_t value) {
        std::printf("%s%s=%llu", sep, name,
                    static_cast<unsigned long long>(value));
        sep = ", ";
      },
      block);
  std::printf("\n");
}

/// The first counter identity a quiescent stats frame breaks, or nullptr
/// when every identity holds (docs/SERVING.md "Observability").
const char* unreconciled(const net::WireStats& ws) {
  const serve::ServiceStats& s = ws.service;
  std::uint64_t submits = 0, rejections = 0;
  for (const serve::ServiceStats::ShardStats& sh : s.shards) {
    submits += sh.submits;
    rejections += sh.rejections;
  }
  if (s.submitted != s.completed + s.rejected + s.timed_out + s.cancelled +
                         s.not_found + s.invalid)
    return "submitted != completed + rejected + timed_out + cancelled + "
           "not_found + invalid";
  if (s.shed_at_admission > s.timed_out)
    return "shed_at_admission > timed_out";
  if (submits + s.not_found + s.invalid + s.shed_at_admission != s.submitted)
    return "sum(shards.submits) != submitted - not_found - invalid - "
           "shed_at_admission";
  if (rejections != s.rejected) return "sum(shards.rejections) != rejected";
  if (ws.net.eval_points != s.submitted)
    return "net eval_points != service submitted";
  return nullptr;
}

// TCP server over the wire protocol (docs/SERVING.md "Wire protocol"):
// binds 127.0.0.1:--port (0 = ephemeral, printed), serves G grids until
// the connection traffic has been idle for --idle-exit-ms (0 = forever).
// A bind conflict is a runtime error (exit 1), not a usage error.
int cmd_net_serve(int argc, char** argv) {
  const auto d = static_cast<dim_t>(std::atoi(flag_value(argc, argv, "--dims", "3")));
  const auto n =
      static_cast<level_t>(std::atoi(flag_value(argc, argv, "--level", "5")));
  const int grids = std::atoi(flag_value(argc, argv, "--grids", "2"));
  const long port = std::atol(flag_value(argc, argv, "--port", "0"));
  const int max_conns = std::atoi(flag_value(argc, argv, "--max-conns", "64"));
  const long max_points =
      std::atol(flag_value(argc, argv, "--max-points", "4096"));
  const long idle_exit_ms =
      std::atol(flag_value(argc, argv, "--idle-exit-ms", "0"));

  const long in_flight = std::atol(flag_value(argc, argv, "--in-flight", "8"));
  const auto opts = service_flags(argc, argv, "1024",
                                  {"--dims", "--level", "--grids", "--port",
                                   "--max-conns", "--max-points",
                                   "--idle-exit-ms", "--in-flight"});
  if (!opts || d < 1 || d > kMaxDim || n < 1 || n > kMaxLevel ||
      grids < 1 || port < 0 || port > 65535 || max_conns < 1 ||
      max_points < 1 || idle_exit_ms < 0 || in_flight < 1)
    return usage();

  serve::GridRegistry registry;
  register_grids(registry, grids, d, n);
  serve::EvalService service(registry, *opts);

  net::TcpListener listener(static_cast<std::uint16_t>(port));
  net::NetServerOptions nopts;
  nopts.max_connections = static_cast<std::size_t>(max_conns);
  nopts.max_in_flight = static_cast<std::size_t>(in_flight);
  nopts.limits.max_batch_points = static_cast<std::uint64_t>(max_points);
  net::NetServer server(listener, registry, service, nopts);
  server.start();
  std::printf("net-serve: listening on 127.0.0.1:%u (%d grid(s) d=%u "
              "level=%u, %.1f KB registry, %zu shard(s) x %d worker(s), "
              "%ld frame(s) in flight per connection)\n",
              listener.port(), grids, d, n,
              static_cast<double>(registry.memory_bytes()) / 1e3,
              service.shard_count(), opts->workers, in_flight);
  std::fflush(stdout);  // the port line must reach pipes before we block

  // Lifetime: exit after --idle-exit-ms of no connections and no traffic
  // (0 = serve until killed). Activity is watched through the same stats
  // counters a dashboard would poll.
  std::uint64_t last_marker = 0;
  auto last_activity = std::chrono::steady_clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto st = server.stats();
    const std::uint64_t marker =
        st.bytes_in + st.connections_accepted + st.active_connections;
    const auto now = std::chrono::steady_clock::now();
    if (marker != last_marker || st.active_connections > 0) {
      last_marker = marker;
      last_activity = now;
      continue;
    }
    if (idle_exit_ms > 0 &&
        now - last_activity >= std::chrono::milliseconds(idle_exit_ms))
      break;
  }
  server.stop();
  service.stop();
  std::printf("net-serve: idle for %ld ms, drained.\n", idle_exit_ms);
  print_counters("net", server.stats());
  return 0;
}

// Closed-loop load generator over the wire protocol. Self-contained: runs
// the server in-process (loopback transport by default, real TCP on an
// ephemeral port with --transport tcp), C client connections each issuing
// its share of R batched requests of K points, then fetches the grid list
// and stats over the wire. Exits non-zero unless every point completed and
// the fetched counters reconcile.
int cmd_net_bench(int argc, char** argv) {
  const std::string transport =
      flag_value(argc, argv, "--transport", "loopback");
  const auto d = static_cast<dim_t>(std::atoi(flag_value(argc, argv, "--dims", "3")));
  const auto n =
      static_cast<level_t>(std::atoi(flag_value(argc, argv, "--level", "5")));
  const int grids = std::atoi(flag_value(argc, argv, "--grids", "2"));
  const long requests = std::atol(flag_value(argc, argv, "--requests", "1000"));
  const int clients = std::atoi(flag_value(argc, argv, "--clients", "4"));
  const long points = std::atol(flag_value(argc, argv, "--points", "8"));
  const long port = std::atol(flag_value(argc, argv, "--port", "0"));
  const long deadline_ms =
      std::atol(flag_value(argc, argv, "--deadline-ms", "0"));
  const auto seed = static_cast<std::uint32_t>(
      std::atoi(flag_value(argc, argv, "--seed", "37")));

  const long in_flight = std::atol(flag_value(argc, argv, "--in-flight", "8"));
  const auto opts = service_flags(
      argc, argv, "4096",
      {"--transport", "--dims", "--level", "--grids", "--requests",
       "--clients", "--points", "--port", "--deadline-ms", "--seed",
       "--in-flight"});
  if (!opts || (transport != "loopback" && transport != "tcp") || d < 1 ||
      d > kMaxDim || n < 1 || n > kMaxLevel || grids < 1 || requests < 1 ||
      clients < 1 || points < 1 || port < 0 || port > 65535 ||
      deadline_ms < 0 || in_flight < 1)
    return usage();

  serve::GridRegistry registry;
  register_grids(registry, grids, d, n);
  serve::EvalService service(registry, *opts);

  net::LoopbackListener loopback;
  std::unique_ptr<net::TcpListener> tcp;
  net::Listener* listener = &loopback;
  if (transport == "tcp") {
    tcp = std::make_unique<net::TcpListener>(static_cast<std::uint16_t>(port));
    listener = tcp.get();
  }
  net::NetServerOptions nopts;
  nopts.max_in_flight = static_cast<std::size_t>(in_flight);
  net::NetServer server(*listener, registry, service, nopts);
  server.start();
  std::printf("net-bench: %s transport, %d grid(s) d=%u level=%u, %ld "
              "request(s) x %ld point(s), %d client(s), %zu shard(s) x "
              "%d worker(s), %ld frame(s) in flight\n",
              transport.c_str(), grids, d, n, requests, points, clients,
              service.shard_count(), opts->workers, in_flight);

  const std::int64_t deadline_us = deadline_ms * 1000;
  std::vector<std::string> grid_names;
  grid_names.reserve(static_cast<std::size_t>(grids));
  for (int g = 0; g < grids; ++g)
    grid_names.push_back(grid_name(g));
  std::atomic<std::uint64_t> ok_points{0}, failed_points{0},
      transport_errors{0};
  std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      try {
        net::NetClient client(
            transport == "tcp"
                ? net::tcp_connect("127.0.0.1", tcp->port())
                : loopback.connect());
        const long share =
            requests / clients + (c < requests % clients ? 1 : 0);
        const auto pts = workloads::uniform_points(
            d, static_cast<std::size_t>(std::max(points, 1l)),
            seed + static_cast<std::uint32_t>(c));
        auto& lat = lat_us[static_cast<std::size_t>(c)];
        lat.reserve(static_cast<std::size_t>(share));
        // Pipelined closed loop: keep up to --in-flight requests
        // outstanding, collecting the oldest (FIFO) once the window is
        // full. Latency is submit-to-collect, so it includes pipeline
        // queueing — the honest number under pipelining.
        std::deque<std::chrono::steady_clock::time_point> t0s;
        const auto collect_one = [&] {
          const auto resp = client.collect();
          lat.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0s.front())
                            .count());
          t0s.pop_front();
          for (const auto& r : resp.results) {
            if (r.status == static_cast<std::uint8_t>(serve::Status::kOk))
              ok_points.fetch_add(1);
            else
              failed_points.fetch_add(1);
          }
        };
        for (long k = 0; k < share; ++k) {
          const std::string& grid =
              grid_names[static_cast<std::size_t>((c + k) % grids)];
          t0s.push_back(std::chrono::steady_clock::now());
          (void)client.submit_eval(grid, pts, deadline_us);
          if (client.outstanding() >= static_cast<std::size_t>(in_flight))
            collect_one();
        }
        while (client.outstanding() > 0) collect_one();
      } catch (const std::exception&) {
        transport_errors.fetch_add(1);
      }
    });
  for (std::thread& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Observability round trip before shutdown: list + stats over the wire.
  // Every client has collected its responses, so the counters are quiescent.
  std::size_t listed = 0;
  net::WireStats ws;
  try {
    net::NetClient probe(transport == "tcp"
                             ? net::tcp_connect("127.0.0.1", tcp->port())
                             : loopback.connect());
    listed = probe.list_grids().grids.size();
    ws = probe.fetch_stats();
  } catch (const std::exception&) {
    transport_errors.fetch_add(1);
  }
  server.stop();
  service.stop();

  const double total_points = static_cast<double>(requests) *
                              static_cast<double>(points);
  std::printf("  throughput %.0f req/s, %.0f point/s (%ld requests in "
              "%.3f s)\n",
              static_cast<double>(requests) / secs, total_points / secs,
              requests, secs);
  print_latency(lat_us, " per batch");
  std::printf("  wire       %zu grid(s) listed, stats fetched:\n", listed);
  print_counters("service", ws.service);
  for (std::size_t k = 0; k < ws.service.shards.size(); ++k)
    print_counters("shard " + std::to_string(k), ws.service.shards[k]);
  print_counters("net", ws.net);
  std::printf("  outcomes   %llu ok, %llu failed point(s), %llu transport "
              "error(s)\n",
              static_cast<unsigned long long>(ok_points.load()),
              static_cast<unsigned long long>(failed_points.load()),
              static_cast<unsigned long long>(transport_errors.load()));
  const char* broken = unreconciled(ws);
  if (broken != nullptr)
    std::printf("  stats do not reconcile: %s\n", broken);
  // Without deadlines every point must evaluate; with them, timeouts are
  // legitimate but transport failures and unreconciled counters never are.
  const bool ok =
      transport_errors.load() == 0 && broken == nullptr &&
      (deadline_ms > 0 ||
       ok_points.load() == static_cast<std::uint64_t>(requests) *
                               static_cast<std::uint64_t>(points));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "create") return cmd_create(argc - 2, argv + 2);
    if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
    if (cmd == "eval" && argc >= 3)
      return cmd_eval(argv[2], argc - 3, argv + 3);
    if (cmd == "evalbatch" && argc >= 3)
      return cmd_evalbatch(argv[2], argc - 3, argv + 3);
    if (cmd == "integrate" && argc >= 3) return cmd_integrate(argv[2]);
    if (cmd == "slice" && argc >= 3)
      return cmd_slice(argv[2], argc - 3, argv + 3);
    if (cmd == "compress" && argc >= 3)
      return cmd_compress(argv[2], argc - 3, argv + 3);
    if (cmd == "restrict" && argc >= 3)
      return cmd_restrict(argv[2], argc - 3, argv + 3);
    if (cmd == "selfcheck") return cmd_selfcheck(argc - 2, argv + 2);
    if (cmd == "serve-bench") return cmd_serve_bench(argc - 2, argv + 2);
    if (cmd == "net-serve") return cmd_net_serve(argc - 2, argv + 2);
    if (cmd == "net-bench") return cmd_net_bench(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csgtool: %s\n", e.what());
    return 1;
  }
  return usage();
}
