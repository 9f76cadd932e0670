#include "csg/core/evaluation_plan.hpp"

#include <gtest/gtest.h>

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

TEST(EvaluationPlan, GridAndItsCopiesReturnOnePlanInstance) {
  const RegularSparseGrid a(3, 4);
  const RegularSparseGrid copy(a);
  const CompactStorage storage(a);
  EXPECT_EQ(&a.plan(), &a.plan());
  EXPECT_EQ(&copy.plan(), &a.plan());
  EXPECT_EQ(&storage.grid().plan(), &a.plan());
  // A grid of the same shape built separately owns its own plan.
  const RegularSparseGrid same_shape(3, 4);
  EXPECT_EQ(same_shape, a);
  EXPECT_NE(&same_shape.plan(), &a.plan());
  EXPECT_EQ(same_shape.plan().subspace_count(), a.plan().subspace_count());
  // The shim kept for perfbench hands out the grid's own plan.
  EXPECT_EQ(EvaluationPlan::shared(a).get(), &a.plan());
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
    EXPECT_EQ(evaluate_span(s.grid().plan(), coeffs, pts[p]), reference[p])
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
