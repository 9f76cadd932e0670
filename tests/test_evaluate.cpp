#include "csg/core/evaluate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "csg/core/hierarchize.hpp"
#include "csg/core/point_block.hpp"
#include "csg/core/simd.hpp"
#include "csg/testing/generators.hpp"
#include "csg/testing/oracles.hpp"
#include "csg/testing/property.hpp"
#include "csg/testing/reference_evaluate.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg {
namespace {

using workloads::TestFunction;

CompactStorage compressed(const TestFunction& f, dim_t d, level_t n) {
  CompactStorage s(d, n);
  s.sample(f.f);
  hierarchize(s);
  return s;
}

TEST(Evaluate, SingleBasisFunctionReproducesItsHat) {
  // Put a unit coefficient on one basis function; evaluation must equal the
  // tensor hat everywhere.
  CompactStorage s(2, 4);
  const LevelVector l{1, 2};
  const IndexVector i{3, 5};
  s.at(l, i) = 1.0;
  for (const CoordVector& x : workloads::uniform_points(2, 200, 11)) {
    const real_t expected =
        hat_basis_1d(1, 3, x[0]) * hat_basis_1d(2, 5, x[1]);
    EXPECT_NEAR(evaluate(s, x), expected, 1e-15);
  }
}

TEST(Evaluate, ZeroOnDomainBoundary) {
  const CompactStorage s = compressed(workloads::gaussian_bump(3), 3, 5);
  EXPECT_DOUBLE_EQ(evaluate(s, CoordVector{0.0, 0.3, 0.7}), 0.0);
  EXPECT_DOUBLE_EQ(evaluate(s, CoordVector{0.4, 1.0, 0.7}), 0.0);
  EXPECT_DOUBLE_EQ(evaluate(s, CoordVector{0.0, 0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(evaluate(s, CoordVector{1.0, 1.0, 1.0}), 0.0);
}

TEST(Evaluate, ExactForRepresentableFunction) {
  // coarse_dlinear lies in the span of every grid of level >= 2, so sparse
  // grid interpolation is exact everywhere, not only at grid points.
  const dim_t d = 3;
  const TestFunction f = workloads::coarse_dlinear(d);
  const CompactStorage s = compressed(f, d, 4);
  for (const CoordVector& x : workloads::halton_points(d, 300)) {
    EXPECT_NEAR(evaluate(s, x), f(x), 1e-13);
  }
}

TEST(Evaluate, ManyMatchesSingle) {
  const CompactStorage s = compressed(workloads::simulation_field(3), 3, 5);
  const auto pts = workloads::uniform_points(3, 64, 5);
  const auto many = evaluate_many_blocked(s, pts);
  ASSERT_EQ(many.size(), pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p)
    EXPECT_EQ(many[p], evaluate(s, pts[p]));
}

class BlockSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockSizeSweep, BlockedEvaluationMatchesUnblocked) {
  const CompactStorage s = compressed(workloads::oscillatory(4), 4, 4);
  const auto pts = workloads::uniform_points(4, 133, 17);
  const auto plain = evaluate_many_blocked(s, pts, 1);
  const auto blocked = evaluate_many_blocked(s, pts, GetParam());
  ASSERT_EQ(blocked.size(), plain.size());
  for (std::size_t p = 0; p < pts.size(); ++p)
    EXPECT_NEAR(blocked[p], plain[p], 1e-15) << "point " << p;
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizeSweep,
                         ::testing::Values(1, 2, 7, 64, 133, 500));

TEST(Evaluate, SpanFormMatchesStorageForm) {
  const CompactStorage s = compressed(workloads::gaussian_bump(2), 2, 5);
  const std::span<const real_t> coeffs(s.data(), s.values().size());
  for (const CoordVector& x : workloads::uniform_points(2, 50, 3))
    EXPECT_EQ(evaluate_span(s.grid().plan(), coeffs, x),
              evaluate(s, x));
}

TEST(Evaluate, InterpolationErrorDecaysWithLevel) {
  // Classic sparse grid convergence: for the smooth parabola product the
  // max interpolation error must shrink monotonically (and substantially)
  // as the level grows.
  const dim_t d = 2;
  const TestFunction f = workloads::parabola_product(d);
  const auto pts = workloads::halton_points(d, 500);
  real_t prev_err = std::numeric_limits<real_t>::infinity();
  for (level_t n : {2, 4, 6, 8}) {
    const CompactStorage s = compressed(f, d, n);
    real_t err = 0;
    for (const CoordVector& x : pts)
      err = std::max(err, std::abs(evaluate(s, x) - f(x)));
    EXPECT_LT(err, prev_err * 0.5) << "no decay at level " << n;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);
}

TEST(Evaluate, HigherDimensionalErrorIsControlled) {
  const dim_t d = 5;
  const TestFunction f = workloads::parabola_product(d);
  const CompactStorage s = compressed(f, d, 7);
  real_t err = 0;
  for (const CoordVector& x : workloads::halton_points(d, 300))
    err = std::max(err, std::abs(evaluate(s, x) - f(x)));
  EXPECT_LT(err, 0.05);
}

TEST(EvaluateSoa, BitIdenticalToScalarAcrossBlockSizes) {
  const CompactStorage s = compressed(workloads::oscillatory(4), 4, 5);
  const auto pts = workloads::uniform_points(4, 3 * kPointBlockLane + 5, 23);
  for (const std::size_t block :
       {std::size_t{1}, kPointBlockLane - 1, kPointBlockLane,
        kPointBlockLane + 1, pts.size() + 40}) {
    const auto scalar = testing::evaluate_blocked_scalar(s, pts, block);
    const auto soa = evaluate_many_blocked(s, pts, block);
    ASSERT_EQ(soa.size(), scalar.size());
    for (std::size_t p = 0; p < pts.size(); ++p)
      EXPECT_EQ(soa[p], scalar[p]) << "block=" << block << " point " << p;
  }
}

TEST(EvaluateSoa, BoundaryAndGridLinePoints) {
  // Points exactly on the 0/1 domain boundary and on dyadic grid lines sit
  // on a subspace support edge: the hat product is an exact 0 there, and
  // the branch-free select must reproduce the scalar walk bit for bit.
  const CompactStorage s = compressed(workloads::simulation_field(2), 2, 5);
  const std::vector<CoordVector> pts{
      {0.0, 0.0},   {1.0, 1.0},  {0.0, 1.0},    {0.5, 0.5},
      {0.25, 0.75}, {0.5, 0.31}, {0.125, 0.625}, {1.0, 0.41},
      {0.0, 0.99},  {0.875, 0.0}};
  const auto soa = evaluate_many_blocked(s, pts, 4);
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const real_t walk = testing::evaluate_walk(s.grid(), s.values(), pts[p]);
    EXPECT_EQ(soa[p], walk) << "point " << p;
    EXPECT_EQ(evaluate(s, pts[p]), walk) << "point " << p;
  }
  EXPECT_EQ(soa[0], 0.0);
  EXPECT_EQ(soa[1], 0.0);
  EXPECT_EQ(soa[2], 0.0);
}

TEST(EvaluateSoa, GridLinesOnHighestTableRow) {
  // d=3 n=9: the finest level is 8, so k/2^8 (k odd) lies on a support edge
  // of the last basis-table row, 1 - 2^-9 on the centre of its last hat,
  // and 0 and 1 on the domain boundary (the x == 1 clamp).
  const CompactStorage s = compressed(workloads::oscillatory(3), 3, 9);
  const real_t top = 1.0 - std::ldexp(1.0, -9);
  std::vector<CoordVector> pts{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0},
                               {top, top, top}, {0.0, top, 1.0}};
  for (const int k : {1, 3, 85, 127, 129, 171, 253, 255}) {
    const real_t line = std::ldexp(static_cast<real_t>(k), -8);
    pts.push_back({line, line, line});
    pts.push_back({line, top, 0.3});
    pts.push_back({1.0, line, top});
    pts.push_back({0.0, 0.61, line});
  }
  const auto soa = evaluate_many_blocked(s, pts, 5);
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const real_t walk = testing::evaluate_walk(s.grid(), s.values(), pts[p]);
    EXPECT_EQ(soa[p], walk) << "point " << p;
    EXPECT_EQ(evaluate(s, pts[p]), walk) << "point " << p;
  }
}

TEST(EvaluateSoa, OneArenaAcrossGridShapes) {
  // A smaller grid after a larger one on the same thread-local arena: stale
  // table rows or a level stride left over from the previous shape would
  // show up as a mismatch against the walk.
  const std::vector<std::pair<dim_t, level_t>> shapes{
      {2, 3}, {6, 8}, {2, 3}, {4, 10}};
  std::vector<CompactStorage> grids;
  std::mt19937_64 rng(0xa2e4aull);
  std::uniform_real_distribution<real_t> coef(-1.0, 1.0);
  for (const auto& [d, n] : shapes) {
    CompactStorage g(d, n);
    for (std::size_t i = 0; i < g.values().size(); ++i) g[i] = coef(rng);
    grids.push_back(std::move(g));
  }
  // Every grid sees the same point prefix, cut to its dimension.
  const auto prefix = workloads::uniform_points(6, 23, 41);
  auto run_all = [&] {
    for (const CompactStorage& g : grids) {
      std::vector<CoordVector> pts;
      for (const CoordVector& x : prefix)
        pts.emplace_back(x.begin(), x.begin() + g.dim());
      const auto batch = evaluate_many_blocked(g, pts, 9);
      for (std::size_t p = 0; p < pts.size(); ++p) {
        const real_t walk = testing::evaluate_walk(g.grid(), g.values(),
                                                   pts[p]);
        EXPECT_EQ(batch[p], walk)
            << "d=" << g.dim() << " n=" << g.grid().level() << " point " << p;
        EXPECT_EQ(evaluate(g, pts[p]), walk)
            << "d=" << g.dim() << " n=" << g.grid().level() << " point " << p;
      }
    }
  };
  run_all();  // warm pass: the arena grows to the largest shape
  const std::uint64_t arena0 = PointBlock::allocation_count();
  run_all();
  EXPECT_EQ(PointBlock::allocation_count(), arena0);
}

TEST(EvaluateSoa, DegenerateShapes) {
  {
    // d = 1, n = 1: a single basis function.
    CompactStorage s(1, 1);
    s[0] = 2.0;
    const std::vector<CoordVector> pts{{0.5}, {0.25}, {0.0}, {1.0}};
    const auto got = evaluate_many_blocked(s, pts, 3);
    EXPECT_EQ(got[0], 2.0);
    EXPECT_EQ(got[1], 1.0);
    EXPECT_EQ(got[2], 0.0);
    EXPECT_EQ(got[3], 0.0);
  }
  {
    // Single point, block far larger than the point count.
    const CompactStorage s = compressed(workloads::gaussian_bump(3), 3, 4);
    const std::vector<CoordVector> one{{0.3, 0.6, 0.9}};
    const auto got = evaluate_many_blocked(s, one, 1024);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], evaluate(s, one[0]));
  }
  {
    // Empty point span: no blocks, no output.
    const CompactStorage s = compressed(workloads::gaussian_bump(2), 2, 3);
    EXPECT_TRUE(evaluate_many_blocked(s, {}, 8).empty());
  }
}

TEST(EvaluateSoa, StatsCountBlocksLanesAndSubspaces) {
  const CompactStorage s = compressed(workloads::oscillatory(3), 3, 5);
  const auto pts = workloads::uniform_points(3, 133, 7);
  const EvaluationPlan& plan = s.grid().plan();
  const std::size_t block = 17;
  reset_soa_kernel_stats();
  (void)evaluate_many_blocked(s, pts, block);
  const SoaKernelStats stats = soa_kernel_stats();
  std::uint64_t blocks = 0, lanes = 0;
  for (std::size_t b0 = 0; b0 < pts.size(); b0 += block) {
    const std::size_t len = std::min(block, pts.size() - b0);
    ++blocks;
    lanes += (len + kPointBlockLane - 1) / kPointBlockLane;
  }
  EXPECT_EQ(stats.blocks, blocks);
  EXPECT_EQ(stats.lanes, lanes);
  EXPECT_EQ(stats.subspaces_visited, blocks * plan.subspace_count());
  // A single-point evaluate is one block of one lane over every subspace.
  reset_soa_kernel_stats();
  (void)evaluate(s, pts[0]);
  const SoaKernelStats one = soa_kernel_stats();
  EXPECT_EQ(one.blocks, 1u);
  EXPECT_EQ(one.lanes, 1u);
  EXPECT_EQ(one.subspaces_visited, plan.subspace_count());
  // Both share this thread's PointBlock arena: warmed by the calls above,
  // it does not grow while single-point and batch calls alternate.
  const std::uint64_t arena0 = PointBlock::allocation_count();
  for (int k = 0; k < 4; ++k) {
    (void)evaluate(s, pts[static_cast<std::size_t>(k)]);
    (void)evaluate_many_blocked(s, pts, block);
  }
  EXPECT_EQ(PointBlock::allocation_count(), arena0);
}

TEST(EvaluateSoa, OracleBatteryOnRandomGrids) {
  // Differential property: SoA vs the scalar oracles (blocked loop and
  // walk) over seeded random shapes, coefficients, and point clouds. Replay
  // a failure with CSG_PROPERTY_SEED=<seed> (docs/TESTING.md).
  const auto r = testing::run_property(
      {"eval_soa_parity", 8}, [](std::mt19937_64& rng) {
        const auto shape = testing::random_shape(
            rng, {.max_dim = 6, .max_level = 6, .max_points = 40'000});
        const CompactStorage coeffs =
            testing::random_coefficients(rng, shape);
        auto pts = testing::random_points(rng, shape.d, 45);
        // Salt the cloud with exact boundary/grid-line coordinates so the
        // support-edge selects are exercised every iteration.
        pts.push_back(CoordVector(shape.d, 0.0));
        pts.push_back(CoordVector(shape.d, 1.0));
        pts.push_back(CoordVector(shape.d, 0.5));
        const auto res = testing::check_eval_soa_parity(coeffs, pts);
        return res.ok ? std::string{} : res.detail;
      });
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(EvaluateSoaDeath, BlockDimensionMismatchAborts) {
  const CompactStorage s = compressed(workloads::gaussian_bump(2), 2, 3);
  const EvaluationPlan& plan = s.grid().plan();
  const std::span<const real_t> coeffs(s.data(), s.values().size());
  PointBlock block;
  const std::vector<CoordVector> pts{{0.5, 0.5, 0.5}};
  block.assign(3, 3, pts);
  EXPECT_DEATH(evaluate_block_soa(plan, coeffs, block), "precondition");
}

TEST(EvaluateSoaDeath, BlockLevelMismatchAborts) {
  // Tables sized for fewer levels than the plan would be read past their
  // last row.
  const CompactStorage s = compressed(workloads::gaussian_bump(2), 2, 3);
  const EvaluationPlan& plan = s.grid().plan();
  const std::span<const real_t> coeffs(s.data(), s.values().size());
  PointBlock block;
  const std::vector<CoordVector> pts{{0.5, 0.5}};
  block.assign(2, 2, pts);
  EXPECT_DEATH(evaluate_block_soa(plan, coeffs, block), "precondition");
}

TEST(EvaluateDeath, DimensionMismatchAborts) {
  const CompactStorage s(2, 3);
  EXPECT_DEATH(evaluate(s, CoordVector{0.5}), "precondition");
}

}  // namespace
}  // namespace csg
