#include "csg/core/hierarchize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "csg/core/evaluate.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/testing/param_names.hpp"
#include "csg/testing/reference_hierarchize.hpp"
#include "csg/workloads/functions.hpp"

namespace csg {
namespace {

using workloads::TestFunction;

TEST(Hierarchize, OneDimensionalKnownCoefficients) {
  // 1d, level 3 grid on f(x) = x for x < 1 (zero-boundary mismatch at the
  // right edge is irrelevant: we only sample interior points).
  // Nodal values: f(x) = x at x = k/8. Hierarchical surpluses of the linear
  // function: the root keeps f(0.5) = 0.5 minus mean of boundaries (0) =
  // 0.5; every deeper point's surplus is f(x) - (f(left)+f(right))/2 = 0
  // except where a neighbor is the boundary with value 0.
  CompactStorage s(1, 3);
  s.sample([](const CoordVector& x) { return x[0]; });
  hierarchize(s);
  const RegularSparseGrid& g = s.grid();
  EXPECT_DOUBLE_EQ(s.at(LevelVector{0}, IndexVector{1}), 0.5);
  EXPECT_DOUBLE_EQ(s.at(LevelVector{1}, IndexVector{1}), 0.0);
  // (1,3) at 0.75: parents 0.5 (value 0.5) and boundary 1.0 (value 0):
  // surplus = 0.75 - 0.25 = 0.5.
  EXPECT_DOUBLE_EQ(s.at(LevelVector{1}, IndexVector{3}), 0.5);
  EXPECT_DOUBLE_EQ(s.at(LevelVector{2}, IndexVector{1}), 0.0);
  // (2,7) at 0.875: parents 0.75 (value 0.75) and boundary 1.0 (value 0):
  // surplus = 0.875 - 0.375 = 0.5.
  EXPECT_DOUBLE_EQ(s.at(LevelVector{2}, IndexVector{7}), 0.5);
  (void)g;
}

TEST(Hierarchize, ParabolaSurplusesFollowClosedForm) {
  // For f(x) = 4x(1-x) the 1d surplus at level l (0-based) is h^2 * 4 with
  // h = 2^{-(l+1)} ... specifically surplus = f(x) - (f(x-h)+f(x+h))/2 =
  // 4h^2 for every interior point (second difference of the parabola).
  CompactStorage s(1, 5);
  s.sample([](const CoordVector& x) { return 4 * x[0] * (1 - x[0]); });
  hierarchize(s);
  for (level_t l = 1; l < 5; ++l) {
    const real_t h = coordinate_1d(l, 1);
    for (index1d_t i = 1; i < (index1d_t{1} << (l + 1)); i += 2)
      EXPECT_NEAR(s.at(LevelVector{l}, IndexVector{i}), 4 * h * h, 1e-14);
  }
}

struct Case {
  dim_t d;
  level_t n;
};

class HierarchizeSweep : public ::testing::TestWithParam<Case> {};

TEST_P(HierarchizeSweep, LiteralAlgorithm6MatchesOptimizedTraversal) {
  const auto [d, n] = GetParam();
  const TestFunction f = workloads::simulation_field(d);
  CompactStorage a(d, n);
  a.sample(f.f);
  CompactStorage b = a;
  hierarchize(a);
  csg::testing::hierarchize_literal(b);
  for (flat_index_t j = 0; j < a.size(); ++j)
    ASSERT_EQ(a[j], b[j]) << "flat index " << j;  // bit-identical
}

TEST_P(HierarchizeSweep, PoleTraversalIsBitIdenticalToAlg6) {
  // Production (pole sweep) against the paper's per-level-group order.
  const auto [d, n] = GetParam();
  const TestFunction f = workloads::simulation_field(d);
  CompactStorage a(d, n);
  a.sample(f.f);
  CompactStorage b = a;
  hierarchize(a);
  csg::testing::hierarchize_groups(b);
  for (flat_index_t j = 0; j < a.size(); ++j)
    ASSERT_EQ(a[j], b[j]) << "flat index " << j;
}

TEST_P(HierarchizeSweep, PoleInverseIsBitIdenticalToAlg6Inverse) {
  const auto [d, n] = GetParam();
  const TestFunction f = workloads::oscillatory(d);
  CompactStorage a(d, n);
  a.sample(f.f);
  hierarchize(a);
  CompactStorage b = a;
  dehierarchize(a);
  csg::testing::dehierarchize_groups(b);
  for (flat_index_t j = 0; j < a.size(); ++j)
    ASSERT_EQ(a[j], b[j]) << "flat index " << j;
}

TEST_P(HierarchizeSweep, PoleRoundTripRestoresNodalValues) {
  // Mixed pairings: each pole transform inverts the other traversal.
  const auto [d, n] = GetParam();
  const TestFunction f = workloads::oscillatory(d);
  CompactStorage s(d, n), t(d, n);
  s.sample(f.f);
  t.sample(f.f);
  const std::vector<real_t> nodal = s.values();
  csg::testing::hierarchize_groups(s);
  dehierarchize(s);
  hierarchize(t);
  csg::testing::dehierarchize_groups(t);
  for (flat_index_t j = 0; j < s.size(); ++j) {
    EXPECT_NEAR(s[j], nodal[static_cast<std::size_t>(j)], 1e-12);
    EXPECT_NEAR(t[j], nodal[static_cast<std::size_t>(j)], 1e-12);
  }
}

TEST_P(HierarchizeSweep, DehierarchizeInvertsHierarchize) {
  const auto [d, n] = GetParam();
  const TestFunction f = workloads::gaussian_bump(d);
  CompactStorage s(d, n);
  s.sample(f.f);
  const std::vector<real_t> nodal = s.values();
  hierarchize(s);
  dehierarchize(s);
  for (flat_index_t j = 0; j < s.size(); ++j)
    EXPECT_NEAR(s[j], nodal[static_cast<std::size_t>(j)], 1e-12);
}

TEST_P(HierarchizeSweep, EvaluationAtGridPointsReproducesNodalValues) {
  // The defining property of the hierarchical coefficients: fs interpolates
  // f at every grid point.
  const auto [d, n] = GetParam();
  const TestFunction f = workloads::oscillatory(d);
  CompactStorage s(d, n);
  s.sample(f.f);
  const std::vector<real_t> nodal = s.values();
  hierarchize(s);
  for (flat_index_t j = 0; j < s.size(); ++j) {
    const CoordVector x = coordinates(s.grid().idx2gp(j));
    EXPECT_NEAR(evaluate(s, x), nodal[static_cast<std::size_t>(j)], 1e-12)
        << "grid point " << j;
  }
}

TEST_P(HierarchizeSweep, HierarchizationIsLinear) {
  const auto [d, n] = GetParam();
  const TestFunction f = workloads::gaussian_bump(d);
  const TestFunction g = workloads::oscillatory(d);
  CompactStorage sf(d, n), sg(d, n), sfg(d, n);
  sf.sample(f.f);
  sg.sample(g.f);
  sfg.sample([&](const CoordVector& x) { return 2 * f.f(x) - 3 * g.f(x); });
  hierarchize(sf);
  hierarchize(sg);
  hierarchize(sfg);
  for (flat_index_t j = 0; j < sf.size(); ++j)
    EXPECT_NEAR(sfg[j], 2 * sf[j] - 3 * sg[j], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierarchizeSweep,
    // n = 1: every pole has budget 0 and is a single point.
    ::testing::Values(Case{1, 1}, Case{3, 1}, Case{1, 6}, Case{2, 5},
                      Case{3, 4}, Case{4, 4}, Case{5, 3}, Case{6, 3}),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      return csg::testing::dn_name(tpi.param.d, tpi.param.n);
    });

TEST(Hierarchize, MultipointRootCountMatchesPoleRootWalk) {
  // Every rank below the count roots poles of at least 2 points (|l|_1 <=
  // n-2); every rank at or past it roots single-point poles (|l|_1 = n-1),
  // which the zero-boundary sweeps never visit.
  for (dim_t d = 1; d <= 8; ++d)
    for (level_t n = 1; n <= 10; ++n) {
      const RegularSparseGrid grid(d, n);
      const std::uint64_t count = detail::multipoint_root_count(grid);
      for (const dim_t t : {dim_t{0}, static_cast<dim_t>(d - 1)}) {
        detail::PoleRoots root(grid, t);
        std::uint64_t multipoint = 0;
        for (std::uint64_t r = 0; r < detail::pole_root_count(grid); ++r) {
          const bool single = root[r].l1_norm() == n - 1;
          multipoint += single ? 0 : 1;
          ASSERT_EQ(single, r >= count)
              << "d=" << d << " n=" << n << " t=" << t << " r=" << r;
        }
        ASSERT_EQ(multipoint, count) << "d=" << d << " n=" << n;
      }
    }
}

TEST(Hierarchize, ParentFlatIndexMatchesManualLookup) {
  RegularSparseGrid g(3, 5);
  for (flat_index_t j = 0; j < g.num_points(); ++j) {
    const GridPoint gp = g.idx2gp(j);
    for (dim_t t = 0; t < 3; ++t) {
      for (bool right : {false, true}) {
        const flat_index_t p =
            csg::testing::parent_flat_index(g, gp.level, gp.index, t, right);
        const Parent1d ref = right ? right_parent_1d(gp.level[t], gp.index[t])
                                   : left_parent_1d(gp.level[t], gp.index[t]);
        if (ref.is_boundary) {
          EXPECT_EQ(p, csg::testing::kBoundaryParent);
        } else {
          LevelVector l = gp.level;
          IndexVector i = gp.index;
          l[t] = ref.level;
          i[t] = ref.index;
          EXPECT_EQ(p, g.gp2idx(l, i));
        }
      }
    }
  }
}

TEST(Hierarchize, LevelOneGridIsIdentity) {
  // A grid with a single point (the root of every dimension) has no
  // parents: hierarchization must be a no-op.
  CompactStorage s(4, 1);
  ASSERT_EQ(s.size(), 1u);
  s[0] = 3.75;
  hierarchize(s);
  EXPECT_EQ(s[0], 3.75);
  dehierarchize(s);
  EXPECT_EQ(s[0], 3.75);
}

TEST(Hierarchize, CoarseDLinearFunctionYieldsSparseCoefficients) {
  // coarse_dlinear is a combination of two tensor hats; after
  // hierarchization only those basis functions (and no deeper ones) may
  // carry non-zero surpluses.
  const dim_t d = 3;
  const TestFunction f = workloads::coarse_dlinear(d);
  CompactStorage s(d, 5);
  s.sample(f.f);
  hierarchize(s);
  for (flat_index_t j = 0; j < s.size(); ++j) {
    const GridPoint gp = s.grid().idx2gp(j);
    if (gp.level.linf_norm() >= 2) {
      EXPECT_NEAR(s[j], 0.0, 1e-13) << "unexpected surplus at " << j;
    }
  }
}

}  // namespace
}  // namespace csg
