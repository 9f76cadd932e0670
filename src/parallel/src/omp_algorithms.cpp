#include "csg/parallel/omp_algorithms.hpp"

#include <algorithm>

namespace csg::parallel {

#if defined(CSG_TSAN_GOMP_BRIDGE)
namespace detail {
void tsan_gomp_bridge_anchor();
}
// Forces tsan_gomp_bridge.o out of the archive so its GOMP_* interposers
// are bound instead of libgomp's uninstrumented ones (see that TU).
[[maybe_unused]] static void (*const force_tsan_bridge)() =
    &detail::tsan_gomp_bridge_anchor;
#endif

namespace {

/// The pole sweep of csg::hierarchize/dehierarchize with each dimension's
/// multi-point pole families handed out in dynamic chunks. Families are
/// disjoint, so the loop needs no barrier of its own (nowait); the join
/// closing the parallel region is the one barrier per dimension.
void omp_sweep(CompactStorage& storage, bool inverse, int num_threads) {
  CSG_EXPECTS(num_threads >= 1);
  const RegularSparseGrid& grid = storage.grid();
  const auto count =
      static_cast<std::int64_t>(csg::detail::multipoint_root_count(grid));
  for (dim_t k = 0; k < grid.dim(); ++k) {
    const dim_t t = csg::detail::sweep_dimension(grid.dim(), k, inverse);
#pragma omp parallel num_threads(num_threads)
    {
      csg::detail::PoleRoots root(grid, t);
      std::vector<flat_index_t> offs(grid.level());
      // Chunks of 16 families: the cursor unranks once per chunk, and a
      // thread slowed by its cache or a preemption takes fewer chunks.
#pragma omp for schedule(dynamic, 16) nowait
      for (std::int64_t r = 0; r < count; ++r)
        csg::detail::transform_pole_family(
            grid, storage.data(), t, root[static_cast<std::uint64_t>(r)],
            inverse, offs);
    }
  }
}

}  // namespace

void omp_hierarchize(CompactStorage& storage, int num_threads) {
  omp_sweep(storage, false, num_threads);
}

void omp_dehierarchize(CompactStorage& storage, int num_threads) {
  omp_sweep(storage, true, num_threads);
}

std::vector<real_t> omp_evaluate_many_blocked(
    const CompactStorage& storage, std::span<const CoordVector> points,
    std::size_t block_size, int num_threads) {
  const std::span<const real_t> coeffs(storage.data(),
                                       storage.values().size());
  return omp_evaluate_many_blocked(storage.grid().plan(), coeffs, points,
                                   block_size, num_threads);
}

std::vector<real_t> omp_evaluate_many_blocked(
    const EvaluationPlan& plan, std::span<const real_t> coeffs,
    std::span<const CoordVector> points, std::size_t block_size,
    int num_threads) {
  CSG_EXPECTS(num_threads >= 1);
  CSG_EXPECTS(block_size >= 1);
  std::vector<real_t> out(points.size(), 0);
  // Ceiling without forming size + block - 1, which wraps to 0 blocks for
  // a block_size near SIZE_MAX.
  const auto num_blocks = static_cast<std::int64_t>(
      points.size() / block_size + (points.size() % block_size != 0));
  // One iteration per point block; blocks write disjoint out ranges, so
  // the reduction is barrier-free and results are bit-identical for any
  // thread count (each point always sums subspaces in enumeration order).
  // evaluate_blocked_into transposes each block into the calling thread's
  // persistent PointBlock arena and runs the SoA kernel on it; OpenMP keeps
  // pool threads (and their thread-locals) alive across regions, so a
  // steady batch stream performs no per-batch point-layout allocation.
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const std::size_t b0 = static_cast<std::size_t>(b) * block_size;
    const std::size_t b1 = std::min(b0 + block_size, points.size());
    evaluate_blocked_into(plan, coeffs, points.subspan(b0, b1 - b0),
                          block_size, std::span<real_t>(out).subspan(b0, b1 - b0));
  }
  return out;
}

}  // namespace csg::parallel
