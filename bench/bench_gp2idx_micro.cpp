// Experiment E13 — microbenchmarks of the bijection itself (google-
// benchmark): gp2idx, idx2gp (strided and in storage order), the next
// iterator and subspace ranking.
// Supports the paper's O(d) claim for gp2idx (Sec. 4.2) with measured
// per-call times across dimensionality. A reporter adapter mirrors every
// per-iteration run into the shared BENCH_*.json record alongside the
// console output.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "csg/core/level_enumeration.hpp"
#include "csg/core/regular_grid.hpp"
#include "csg/testing/generators.hpp"

namespace {

using namespace csg;

constexpr level_t kLevel = 6;

const RegularSparseGrid& grid_for(dim_t d) {
  static std::vector<RegularSparseGrid> grids = [] {
    std::vector<RegularSparseGrid> g;
    for (dim_t dd = 1; dd <= 12; ++dd) g.emplace_back(dd, kLevel);
    return g;
  }();
  return grids[d - 1];
}

// An unbiased random point mix from the shared test-input generator (a
// strided tour over-represents the early level groups, which are the
// cheapest to encode).
std::vector<GridPoint> sample_points(const RegularSparseGrid& g) {
  std::mt19937_64 rng(csg::testing::mix_seed(0xbe'9c'00'01));
  std::vector<GridPoint> pts;
  pts.reserve(512);
  for (int k = 0; k < 512; ++k)
    pts.push_back(csg::testing::random_grid_point(rng, g));
  return pts;
}

void BM_gp2idx(benchmark::State& state) {
  const auto d = static_cast<dim_t>(state.range(0));
  const RegularSparseGrid& g = grid_for(d);
  const auto pts = sample_points(g);
  std::size_t k = 0;
  for (auto _ : state) {
    const GridPoint& gp = pts[k++ % pts.size()];
    benchmark::DoNotOptimize(g.gp2idx(gp.level, gp.index));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_gp2idx)->DenseRange(2, 10, 2);

void BM_idx2gp(benchmark::State& state) {
  const auto d = static_cast<dim_t>(state.range(0));
  const RegularSparseGrid& g = grid_for(d);
  flat_index_t j = 0;
  const flat_index_t stride = g.num_points() / 509 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.idx2gp(j));
    j = (j + stride) % g.num_points();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_idx2gp)->DenseRange(2, 10, 2);

// Storage order, as the sample stage walks it: consecutive positions share
// a subspace, so idx2gp's per-thread subspace memo skips the unranking.
void BM_idx2gp_sequential(benchmark::State& state) {
  const auto d = static_cast<dim_t>(state.range(0));
  const RegularSparseGrid& g = grid_for(d);
  flat_index_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.idx2gp(j));
    if (++j == g.num_points()) j = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_idx2gp_sequential)->DenseRange(2, 10, 2);

void BM_next_level(benchmark::State& state) {
  const auto d = static_cast<dim_t>(state.range(0));
  LevelVector l = first_level(d, kLevel - 1);
  for (auto _ : state) {
    if (!advance_level(l)) l = first_level(d, kLevel - 1);
    benchmark::DoNotOptimize(l);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_next_level)->DenseRange(2, 10, 2);

void BM_subspace_index(benchmark::State& state) {
  const auto d = static_cast<dim_t>(state.range(0));
  const RegularSparseGrid& g = grid_for(d);
  std::vector<LevelVector> levels;
  for (const LevelVector& l : LevelRange(d, kLevel - 1)) levels.push_back(l);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(subspace_index(levels[k++ % levels.size()],
                                            g.binmat()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_subspace_index)->DenseRange(2, 10, 2);

void BM_unrank_subspace(benchmark::State& state) {
  const auto d = static_cast<dim_t>(state.range(0));
  const RegularSparseGrid& g = grid_for(d);
  const std::uint64_t count = num_subspaces(d, kLevel - 1, g.binmat());
  std::uint64_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(unrank_subspace(d, kLevel - 1, r, g.binmat()));
    r = (r + 1) % count;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_unrank_subspace)->DenseRange(2, 10, 2);

/// Console reporter that additionally mirrors every per-iteration run into
/// the csg::bench JSON record (adjusted real time, in the run's time unit —
/// nanoseconds by default).
class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonMirrorReporter(csg::bench::Report* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double per_op = run.GetAdjustedRealTime();
      report_
          ->add_time(run.benchmark_name() + "/per_op",
                     csg::bench::summarize({per_op}),
                     benchmark::GetTimeUnitString(run.time_unit))
          .tolerance = 1.0;
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  csg::bench::Report* report_;
};

}  // namespace

int main(int argc, char** argv) {
  const csg::bench::Args args(argc, argv);
  csg::bench::Report report("bench_gp2idx_micro",
                            "microbenchmarks of the gp2idx bijection and "
                            "subspace enumeration",
                            "Sec. 4.2");
  report.set_param("level", static_cast<std::int64_t>(kLevel));

  // Strip the harness's own flags so google-benchmark does not see them.
  std::vector<char*> bm_argv;
  for (int k = 0; k < argc; ++k) {
    if (std::string(argv[k]) == "--json-out" && k + 1 < argc) {
      ++k;
      continue;
    }
    bm_argv.push_back(argv[k]);
  }
  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());

  JsonMirrorReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  csg::bench::finish_report(report, args);
  return 0;
}
