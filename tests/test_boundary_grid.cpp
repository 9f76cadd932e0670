#include "csg/core/boundary_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"
#include "csg/testing/compare.hpp"
#include "csg/testing/generators.hpp"
#include "csg/testing/param_names.hpp"
#include "csg/testing/reference_evaluate.hpp"
#include "csg/testing/reference_hierarchize.hpp"

namespace csg {
namespace {

TEST(BoundaryGrid, SubgridCountsMatchSection44) {
  // "The number of d-j-dimensional sparse grids in the boundary is
  // 2^j * C(d, d-j)": Fig. 7's 3d example has 6 2d faces, 12 1d edges and
  // 8 corners.
  EXPECT_EQ(num_boundary_subgrids(3, 0), 1u);   // the interior itself
  EXPECT_EQ(num_boundary_subgrids(3, 1), 6u);   // 2d projections
  EXPECT_EQ(num_boundary_subgrids(3, 2), 12u);  // 1d projections
  EXPECT_EQ(num_boundary_subgrids(3, 3), 8u);   // corners
  EXPECT_EQ(num_boundary_subgrids(5, 2), 40u);  // 4 * C(5,2)
}

TEST(BoundaryGrid, TotalPointsSumOverSubgrids) {
  const dim_t d = 3;
  const level_t n = 4;
  BoundarySparseGrid bg(d, n);
  flat_index_t expected = 0;
  for (dim_t j = 0; j <= d; ++j)
    expected += num_boundary_subgrids(d, j) * bg.subgrid_points(j);
  EXPECT_EQ(bg.num_points(), expected);
  // 1d interior grids of level 4 hold 15 points; corners hold one.
  EXPECT_EQ(bg.subgrid_points(d), 1u);
  EXPECT_EQ(bg.subgrid_points(d - 1), 15u);
}

TEST(GridPoints, MatchesBothConstructorsAndFlagsOverflow) {
  for (dim_t d = 1; d <= 6; ++d)
    for (level_t n = 1; n <= 6; ++n) {
      EXPECT_EQ(grid_points(d, n), RegularSparseGrid(d, n).num_points());
      EXPECT_EQ(grid_points(d, n, true),
                BoundarySparseGrid(d, n).num_points());
    }
  // d=16 n=20 fits 64-bit indices as an interior grid but not with its
  // boundary faces; n=40 fits neither.
  EXPECT_TRUE(grid_points(kMaxDim, 20).has_value());
  EXPECT_FALSE(grid_points(kMaxDim, 20, true).has_value());
  EXPECT_FALSE(grid_points(kMaxDim, kMaxLevel).has_value());
  EXPECT_FALSE(grid_points(kMaxDim, kMaxLevel, true).has_value());
}

struct Case {
  dim_t d;
  level_t n;
};

class BoundarySweep : public ::testing::TestWithParam<Case> {};

TEST_P(BoundarySweep, Bp2IdxIsABijection) {
  const auto [d, n] = GetParam();
  BoundarySparseGrid bg(d, n);
  std::set<flat_index_t> seen;
  for (flat_index_t idx = 0; idx < bg.num_points(); ++idx) {
    const BoundaryPoint p = bg.idx2bp(idx);
    EXPECT_TRUE(bg.contains(p));
    EXPECT_EQ(bg.bp2idx(p), idx);
    EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), bg.num_points());
}

TEST_P(BoundarySweep, CoordinatesAreConsistentWithFixedDims) {
  const auto [d, n] = GetParam();
  BoundarySparseGrid bg(d, n);
  for (flat_index_t idx = 0; idx < bg.num_points(); ++idx) {
    const BoundaryPoint p = bg.idx2bp(idx);
    const CoordVector x = p.coordinates();
    for (dim_t t = 0; t < d; ++t) {
      if (p.fixed(t)) {
        EXPECT_TRUE(x[t] == 0.0 || x[t] == 1.0);
      } else {
        EXPECT_GT(x[t], 0.0);
        EXPECT_LT(x[t], 1.0);
      }
    }
  }
}

TEST_P(BoundarySweep, HierarchizeRoundTrip) {
  const auto [d, n] = GetParam();
  const auto f = workloads::boundary_polynomial(d);
  BoundaryStorage s(d, n);
  s.sample(f.f);
  const std::vector<real_t> nodal = s.values();
  hierarchize(s);
  dehierarchize(s);
  for (flat_index_t j = 0; j < s.size(); ++j)
    EXPECT_NEAR(s[j], nodal[static_cast<std::size_t>(j)], 1e-12);
}

TEST_P(BoundarySweep, EvaluationInterpolatesAtEveryPoint) {
  const auto [d, n] = GetParam();
  const auto f = workloads::boundary_polynomial(d);
  BoundaryStorage s(d, n);
  s.sample(f.f);
  const std::vector<real_t> nodal = s.values();
  hierarchize(s);
  for (flat_index_t j = 0; j < s.size(); ++j) {
    const BoundaryPoint p = s.grid().idx2bp(j);
    EXPECT_NEAR(evaluate(s, p.coordinates()),
                nodal[static_cast<std::size_t>(j)], 1e-11)
        << "point " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundarySweep,
    ::testing::Values(Case{1, 4}, Case{2, 4}, Case{3, 3}, Case{4, 3}),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      return csg::testing::dn_name(tpi.param.d, tpi.param.n);
    });

/// I.i.d. values in [-2, 2]; every seventh one is a signed zero, so -0
/// operands reach the pole ends and the face sums too.
BoundaryStorage random_boundary(dim_t d, level_t n, std::uint64_t seed) {
  std::mt19937_64 rng(csg::testing::mix_seed(seed));
  std::uniform_real_distribution<real_t> dist(-2, 2);
  BoundaryStorage s(d, n);
  for (flat_index_t k = 0; k < s.size(); ++k)
    s[k] = k % 7 == 3 ? std::copysign(real_t{0}, real_t(k % 2) - 0.5)
                      : dist(rng);
  return s;
}

/// `count` points cycling through four kinds: general position, on a face
/// (one coordinate 0 or 1), a corner, and on grid lines of levels below n.
std::vector<CoordVector> mixed_points(dim_t d, level_t n, std::size_t count,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(csg::testing::mix_seed(seed));
  std::vector<CoordVector> pts = csg::testing::random_points(rng, d, count);
  std::uniform_int_distribution<dim_t> dim(0, d - 1);
  std::uniform_int_distribution<int> bit(0, 1);
  std::uniform_int_distribution<level_t> lev(0, n - 1);
  for (std::size_t p = 0; p < count; ++p) {
    CoordVector& x = pts[p];
    if (p % 4 == 1) x[dim(rng)] = bit(rng);
    if (p % 4 == 2)
      for (dim_t t = 0; t < d; ++t) x[t] = bit(rng);
    if (p % 4 == 3) {
      for (dim_t t = 0; t < d; ++t) {
        if (bit(rng) == 0) continue;
        const level_t l = lev(rng);
        const index1d_t i = 2 * std::uniform_int_distribution<index1d_t>(
                                    0, (index1d_t{1} << l) - 1)(rng) + 1;
        x[t] = coordinate_1d(l, i);
      }
    }
  }
  return pts;
}

void expect_bit_identical(const BoundaryStorage& got,
                          const BoundaryStorage& want) {
  ASSERT_EQ(got.size(), want.size());
  std::size_t bad = 0;
  for (flat_index_t k = 0; k < got.size(); ++k)
    if (csg::testing::ulp_distance(got[k], want[k]) != 0 && ++bad <= 3)
      ADD_FAILURE() << "index " << k << ": "
                    << csg::testing::describe_mismatch(got[k], want[k]);
  EXPECT_EQ(bad, 0u);
}

class BoundaryKernelParity : public ::testing::TestWithParam<Case> {};

TEST_P(BoundaryKernelParity, HierarchizeMatchesPointwiseOracle) {
  const auto [d, n] = GetParam();
  BoundaryStorage s = random_boundary(d, n, 10 * d + n);
  BoundaryStorage ref = s;
  hierarchize(s);
  csg::testing::hierarchize_boundary_pointwise(ref);
  expect_bit_identical(s, ref);
}

TEST_P(BoundaryKernelParity, DehierarchizeMatchesPointwiseOracle) {
  const auto [d, n] = GetParam();
  BoundaryStorage s = random_boundary(d, n, 100 + 10 * d + n);
  BoundaryStorage ref = s;
  dehierarchize(s);
  csg::testing::dehierarchize_boundary_pointwise(ref);
  expect_bit_identical(s, ref);
}

TEST_P(BoundaryKernelParity, BatchEvaluateMatchesSinglePointAndOracle) {
  const auto [d, n] = GetParam();
  const BoundaryStorage s = random_boundary(d, n, 200 + 10 * d + n);
  // 7 and 130 leave partial blocks; 64 is exactly one full block; 130
  // spans three 64-point blocks.
  for (const std::size_t count : {0, 1, 7, 64, 130}) {
    const auto pts = mixed_points(d, n, count, 300 + count);
    const std::vector<real_t> batch = evaluate(s, pts);
    ASSERT_EQ(batch.size(), count);
    for (std::size_t p = 0; p < count; ++p) {
      const real_t single = evaluate(s, pts[p]);
      const real_t walk = csg::testing::evaluate_boundary_walk(s, pts[p]);
      EXPECT_EQ(csg::testing::ulp_distance(batch[p], single), 0u)
          << "batch " << count << " point " << p << ": "
          << csg::testing::describe_mismatch(batch[p], single);
      EXPECT_EQ(csg::testing::ulp_distance(batch[p], walk), 0u)
          << "batch " << count << " point " << p << ": "
          << csg::testing::describe_mismatch(batch[p], walk);
    }
  }
}

// d = 1..6; at n = 1 every pole is a single point between non-zero ends.
std::vector<Case> parity_shapes() {
  std::vector<Case> shapes;
  for (dim_t d = 1; d <= 6; ++d)
    for (const level_t n : {1, 2, 4, 6}) shapes.push_back({d, n});
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BoundaryKernelParity, ::testing::ValuesIn(parity_shapes()),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      return csg::testing::dn_name(tpi.param.d, tpi.param.n);
    });

TEST(BoundaryGrid, CornersHoldFunctionValues) {
  const dim_t d = 3;
  const auto f = workloads::boundary_polynomial(d);
  BoundaryStorage s(d, 3);
  s.sample(f.f);
  hierarchize(s);
  // Corner coefficients stay nodal (they have no parents in any dimension).
  for (flat_index_t idx = s.grid().group_offset(d); idx < s.size(); ++idx) {
    const BoundaryPoint p = s.grid().idx2bp(idx);
    EXPECT_DOUBLE_EQ(s[idx], f(p.coordinates()));
  }
}

TEST(BoundaryGrid, ExactForMultilinearFunctions) {
  // A d-multilinear function (affine per dimension) is reproduced exactly
  // by the boundary grid's d-linear interpolant everywhere.
  const dim_t d = 3;
  auto f = [](const CoordVector& x) {
    return (1 + x[0]) * (2 - x[1]) * (0.5 + x[2]);
  };
  BoundaryStorage s(d, 3);
  s.sample(f);
  hierarchize(s);
  for (const CoordVector& x : workloads::halton_points(d, 200))
    EXPECT_NEAR(evaluate(s, x), f(x), 1e-12);
}

TEST(BoundaryGrid, MatchesInteriorGridForZeroBoundaryFunctions) {
  // When f vanishes on the boundary, the boundary extension must agree
  // with the plain interior sparse grid interpolant.
  const dim_t d = 2;
  const level_t n = 5;
  const auto f = workloads::parabola_product(d);
  BoundaryStorage bs(d, n);
  bs.sample(f.f);
  hierarchize(bs);
  CompactStorage cs(d, n);
  cs.sample(f.f);
  hierarchize(cs);
  for (const CoordVector& x : workloads::uniform_points(d, 200, 23))
    EXPECT_NEAR(evaluate(bs, x), evaluate(cs, x), 1e-13);
}

TEST(BoundaryGrid, InteriorPointsOfInteriorSubgridShareIndexing) {
  // The j=0 block of the boundary layout is exactly the interior compact
  // layout.
  const dim_t d = 3;
  const level_t n = 4;
  BoundarySparseGrid bg(d, n);
  const RegularSparseGrid& ig = bg.interior_grid(d);
  ASSERT_EQ(bg.group_offset(0), 0u);
  ASSERT_EQ(bg.subgrid_points(0), ig.num_points());
  for (flat_index_t k = 0; k < ig.num_points(); ++k) {
    const GridPoint gp = ig.idx2gp(k);
    const BoundaryPoint p = bg.idx2bp(k);
    EXPECT_EQ(p.level, gp.level);
    EXPECT_EQ(p.index, gp.index);
  }
}

TEST(BoundaryGrid, SubsetRankOrdersColexicographically) {
  BoundarySparseGrid bg(4, 2);
  auto make = [&](std::initializer_list<dim_t> fixed) {
    BoundaryPoint p;
    p.level.resize(4);
    p.index.resize(4);
    for (dim_t t = 0; t < 4; ++t) {
      p.level[t] = 0;
      p.index[t] = 1;
    }
    for (dim_t t : fixed) {
      p.level[t] = kBoundaryLevel;
      p.index[t] = 0;
    }
    return p;
  };
  // Colex order of 2-subsets of {0..3}: {0,1} {0,2} {1,2} {0,3} {1,3} {2,3}.
  EXPECT_EQ(bg.subset_rank(make({0, 1})), 0u);
  EXPECT_EQ(bg.subset_rank(make({0, 2})), 1u);
  EXPECT_EQ(bg.subset_rank(make({1, 2})), 2u);
  EXPECT_EQ(bg.subset_rank(make({0, 3})), 3u);
  EXPECT_EQ(bg.subset_rank(make({1, 3})), 4u);
  EXPECT_EQ(bg.subset_rank(make({2, 3})), 5u);
}

TEST(BoundaryGrid, ContainsRejectsInvalidPoints) {
  BoundarySparseGrid bg(2, 3);
  BoundaryPoint ok;
  ok.level = {kBoundaryLevel, 1};
  ok.index = {0, 3};
  EXPECT_TRUE(bg.contains(ok));
  BoundaryPoint bad_index = ok;
  bad_index.index[0] = 2;  // boundary index must be 0 or 1
  EXPECT_FALSE(bg.contains(bad_index));
  BoundaryPoint too_deep;
  too_deep.level = {2, 1};  // |l| = 3 >= n
  too_deep.index = {1, 1};
  EXPECT_FALSE(bg.contains(too_deep));
}

}  // namespace
}  // namespace csg
