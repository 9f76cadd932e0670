#include "csg/core/evaluation_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"
#include "csg/testing/param_names.hpp"
#include "csg/testing/reference_evaluate.hpp"

namespace csg {
namespace {

CompactStorage compressed(dim_t d, level_t n) {
  CompactStorage s(d, n);
  s.sample(workloads::simulation_field(d).f);
  hierarchize(s);
  return s;
}

TEST(EvaluationPlan, FlattensTheFullEnumeration) {
  const RegularSparseGrid grid(4, 5);
  const EvaluationPlan plan(grid);
  EXPECT_EQ(plan.dim(), 4u);
  EXPECT_EQ(plan.level(), 5u);
  EXPECT_EQ(plan.num_points(), grid.num_points());
  std::size_t expected = 0;
  for (level_t j = 0; j < grid.level(); ++j)
    expected += static_cast<std::size_t>(grid.subspaces_in_group(j));
  EXPECT_EQ(plan.subspace_count(), expected);
}

TEST(EvaluationPlan, EntriesMatchGridEnumerationAndOffsets) {
  const RegularSparseGrid grid(3, 6);
  const EvaluationPlan plan(grid);
  std::size_t s = 0;
  for (level_t j = 0; j < grid.level(); ++j)
    for (const LevelVector& l : LevelRange(3, j)) {
      ASSERT_LT(s, plan.subspace_count());
      EXPECT_EQ(plan.level_of(s), l) << "subspace " << s;
      EXPECT_EQ(plan.offsets()[s], grid.subspace_offset(l)) << "subspace " << s;
      ++s;
    }
  EXPECT_EQ(s, plan.subspace_count());
}

/// Tests below mutate the process-global cache; restore its default shape
/// on exit so suites sharing this process see a clean cache.
struct PlanCacheGuard {
  ~PlanCacheGuard() {
    EvaluationPlan::shared_cache_clear();
    EvaluationPlan::shared_cache_set_capacity(
        EvaluationPlan::kDefaultSharedCacheCap);
  }
};

TEST(EvaluationPlan, SharedCacheReturnsOneInstancePerShape) {
  const RegularSparseGrid a(3, 4), b(3, 4), c(3, 5);
  EXPECT_EQ(EvaluationPlan::shared(a).get(), EvaluationPlan::shared(b).get());
  EXPECT_NE(EvaluationPlan::shared(a).get(), EvaluationPlan::shared(c).get());
}

TEST(EvaluationPlan, SharedCacheCountsHitsAndMisses) {
  PlanCacheGuard guard;
  EvaluationPlan::shared_cache_clear();
  const RegularSparseGrid grid(4, 4);
  (void)EvaluationPlan::shared(grid);
  (void)EvaluationPlan::shared(grid);
  (void)EvaluationPlan::shared(grid);
  const auto stats = EvaluationPlan::shared_cache_stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EvaluationPlan, SharedCacheEvictsLeastRecentlyUsed) {
  PlanCacheGuard guard;
  EvaluationPlan::shared_cache_clear();
  EvaluationPlan::shared_cache_set_capacity(2);

  const RegularSparseGrid a(2, 2), b(2, 3), c(2, 4);
  const auto plan_a = EvaluationPlan::shared(a);
  (void)EvaluationPlan::shared(b);
  // Touch a: recency order is now [a, b]. Inserting c must evict b.
  EXPECT_EQ(EvaluationPlan::shared(a).get(), plan_a.get());
  (void)EvaluationPlan::shared(c);

  auto stats = EvaluationPlan::shared_cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // a survived (hit, same instance); b was evicted (miss, fresh build).
  EXPECT_EQ(EvaluationPlan::shared(a).get(), plan_a.get());
  const std::uint64_t misses_before =
      EvaluationPlan::shared_cache_stats().misses;
  (void)EvaluationPlan::shared(b);
  EXPECT_EQ(EvaluationPlan::shared_cache_stats().misses, misses_before + 1);
}

TEST(EvaluationPlan, SharedCacheEvictionKeepsOutstandingPlansAlive) {
  PlanCacheGuard guard;
  EvaluationPlan::shared_cache_clear();
  EvaluationPlan::shared_cache_set_capacity(1);

  const RegularSparseGrid a(3, 3), b(3, 4);
  const auto pinned = EvaluationPlan::shared(a);
  (void)EvaluationPlan::shared(b);  // evicts a from the cache
  EXPECT_EQ(EvaluationPlan::shared_cache_stats().size, 1u);

  // The evicted plan is still fully usable by its holder.
  EXPECT_EQ(pinned->dim(), 3u);
  EXPECT_EQ(pinned->num_points(), a.num_points());
  const std::vector<real_t> coeffs(a.num_points(), 0.5);
  (void)evaluate_span(*pinned, coeffs, CoordVector{0.5, 0.5, 0.5});
}

TEST(EvaluationPlan, SharedCacheMemoryBytesReflectsResidentPlansOnly) {
  PlanCacheGuard guard;
  EvaluationPlan::shared_cache_clear();
  EvaluationPlan::shared_cache_set_capacity(8);

  const RegularSparseGrid a(4, 5), b(5, 5), c(6, 5);
  const auto pa = EvaluationPlan::shared(a);
  const auto pb = EvaluationPlan::shared(b);
  const auto pc = EvaluationPlan::shared(c);
  const std::size_t all_bytes =
      pa->memory_bytes() + pb->memory_bytes() + pc->memory_bytes();
  EXPECT_EQ(EvaluationPlan::shared_cache_stats().memory_bytes, all_bytes);

  // Shrinking the capacity evicts down to the most recent entry, and the
  // reported bytes drop with it — live state, not high-water capacity.
  EvaluationPlan::shared_cache_set_capacity(1);
  const auto stats = EvaluationPlan::shared_cache_stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.memory_bytes, pc->memory_bytes());
  EXPECT_LT(stats.memory_bytes, all_bytes);
}

TEST(EvaluationPlan, SharedCacheClearResetsStateButNotHolders) {
  PlanCacheGuard guard;
  const RegularSparseGrid grid(3, 5);
  const auto held = EvaluationPlan::shared(grid);
  EvaluationPlan::shared_cache_clear();
  const auto stats = EvaluationPlan::shared_cache_stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions, 0u);
  EXPECT_EQ(stats.memory_bytes, 0u);
  // Held plan survives; a fresh fetch builds a new instance.
  EXPECT_EQ(held->num_points(), grid.num_points());
  EXPECT_NE(EvaluationPlan::shared(grid).get(), held.get());
}

// Regression for the unbounded-growth bug: a long-lived process touching
// many (d, n) shapes must hold at most `capacity` plans, with the reported
// footprint bounded by the resident set — not by the shape history.
TEST(EvaluationPlan, SharedCacheStaysBoundedUnderManyShapes) {
  PlanCacheGuard guard;
  EvaluationPlan::shared_cache_clear();
  constexpr std::size_t kCap = 8;
  EvaluationPlan::shared_cache_set_capacity(kCap);

  std::size_t shapes = 0;
  std::size_t max_resident_bytes = 0;
  for (dim_t d = 1; d <= 10; ++d)
    for (level_t n = 1; n <= 8; ++n) {
      (void)EvaluationPlan::shared(RegularSparseGrid(d, n));
      ++shapes;
      const auto stats = EvaluationPlan::shared_cache_stats();
      ASSERT_LE(stats.size, kCap) << "d=" << d << " n=" << n;
      max_resident_bytes = std::max(max_resident_bytes, stats.memory_bytes);
    }

  const auto stats = EvaluationPlan::shared_cache_stats();
  EXPECT_EQ(shapes, 80u);
  EXPECT_EQ(stats.size, kCap);
  EXPECT_EQ(stats.misses, shapes);
  EXPECT_EQ(stats.evictions, shapes - kCap);
  // The whole 80-shape history would dwarf the bounded resident set; with
  // the old unbounded map this held every plan ever built.
  EXPECT_LE(stats.memory_bytes, max_resident_bytes);
}

TEST(EvaluationPlanDeath, ZeroCapacityRejected) {
  EXPECT_DEATH(EvaluationPlan::shared_cache_set_capacity(0), "precondition");
}

TEST(EvaluationPlan, MemoryFootprintIsSmall) {
  // d=10, n=6 — the plan metadata must stay far below the coefficient
  // payload it accelerates.
  const RegularSparseGrid grid(10, 6);
  const EvaluationPlan plan(grid);
  EXPECT_LT(plan.memory_bytes(),
            static_cast<std::size_t>(grid.num_points()) * sizeof(real_t));
}

struct DimLevel {
  dim_t d;
  level_t n;
};

/// `uniform` random points plus 8 points on the domain boundary and on
/// dyadic grid lines, where a subspace's hat product is an exact 0 and the
/// SoA kernel's support-edge selects decide the result. The scalar walk
/// costs ~2 ms per point on the d=6 n=11 grid, so grids of more than
/// 10,000 points take 56 random points (64 in all).
std::vector<CoordVector> parity_points(const RegularSparseGrid& grid,
                                       std::size_t uniform,
                                       std::uint32_t seed) {
  const dim_t d = grid.dim();
  if (grid.num_points() > 10'000) uniform = 56;
  auto pts = workloads::uniform_points(d, uniform, seed);
  CoordVector corner(d), lines(d);
  for (dim_t t = 0; t < d; ++t) {
    corner[t] = t % 3 == 0 ? 0.0 : (t % 3 == 1 ? 0.375 : 1.0);
    lines[t] = static_cast<real_t>(2 * (t % 8) + 1) / 16;
  }
  CoordVector on_line = pts[0], on_edge = pts[1];
  on_line[0] = 0.25;
  on_edge[d - 1] = 1.0;
  for (const CoordVector& x :
       {CoordVector(d, 0.0), CoordVector(d, 1.0), CoordVector(d, 0.5), corner,
        lines, on_line, on_edge})
    pts.push_back(x);
  return pts;
}

class PlanParity : public ::testing::TestWithParam<DimLevel> {};

// Every production path — the SoA kernel through single-point, blocked and
// plan-held entry points — must agree bit-for-bit with the scalar walk
// (first_level/advance_level per call), the testing::evaluate_walk oracle.
TEST_P(PlanParity, PlanPathsAreBitIdenticalToTheScalarWalk) {
  const auto [d, n] = GetParam();
  const CompactStorage s = compressed(d, n);
  const std::span<const real_t> coeffs(s.data(), s.values().size());
  const auto pts = parity_points(s.grid(), 97, 13);

  std::vector<real_t> reference(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p)
    reference[p] = testing::evaluate_walk(s.grid(), coeffs, pts[p]);

  const EvaluationPlan plan(s.grid());
  for (std::size_t p = 0; p < pts.size(); ++p) {
    EXPECT_EQ(evaluate_span(plan, coeffs, pts[p]), reference[p]) << p;
    EXPECT_EQ(evaluate_span(*EvaluationPlan::shared(s.grid()), coeffs, pts[p]),
              reference[p])
        << p;
    EXPECT_EQ(evaluate(s, pts[p]), reference[p]) << p;
  }

  for (std::size_t block : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                            pts.size(), std::size_t{1000}}) {
    EXPECT_EQ(evaluate_many_blocked(s, pts, block), reference)
        << "block " << block;
    EXPECT_EQ(evaluate_many_blocked(plan, coeffs, pts, block), reference)
        << "block " << block;
  }
}

TEST_P(PlanParity, OmpBlockedIsBitIdenticalForAnyThreadAndBlockCount) {
  const auto [d, n] = GetParam();
  const CompactStorage s = compressed(d, n);
  const std::span<const real_t> coeffs(s.data(), s.values().size());
  const auto pts = parity_points(s.grid(), 131, 29);
  std::vector<real_t> reference(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p)
    reference[p] = testing::evaluate_walk(s.grid(), coeffs, pts[p]);
  for (int threads : {1, 2, 4, 7})
    for (std::size_t block : {std::size_t{1}, std::size_t{16},
                              std::size_t{64}, pts.size(), std::size_t{500}})
      EXPECT_EQ(parallel::omp_evaluate_many_blocked(s, pts, block, threads),
                reference)
          << "threads " << threads << " block " << block;
}

// d=4 n=8 (served grids), d=6 n=11 and d=4 n=10 (query grids) are the
// perfbench shapes, whose own checks compare production paths only with
// each other; they run 64 points each.
INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanParity,
    ::testing::Values(DimLevel{1, 6}, DimLevel{2, 6}, DimLevel{5, 5},
                      DimLevel{10, 3}, DimLevel{4, 8}, DimLevel{6, 11},
                      DimLevel{4, 10}),
    [](const ::testing::TestParamInfo<DimLevel>& tpi) {
      return csg::testing::dn_name(tpi.param.d, tpi.param.n);
    });

TEST(EvaluationPlanDeath, DimensionMismatchAborts) {
  const RegularSparseGrid grid(2, 3);
  const EvaluationPlan plan(grid);
  const std::vector<real_t> coeffs(grid.num_points(), 0);
  EXPECT_DEATH((void)evaluate_span(plan, coeffs, CoordVector{0.5}),
               "precondition");
}

TEST(EvaluationPlanDeath, ShortCoefficientSpanAborts) {
  const RegularSparseGrid grid(2, 3);
  const EvaluationPlan plan(grid);
  const std::vector<real_t> coeffs(grid.num_points() - 1, 0);
  EXPECT_DEATH((void)evaluate_span(plan, coeffs, CoordVector{0.5, 0.5}),
               "precondition");
}

}  // namespace
}  // namespace csg
