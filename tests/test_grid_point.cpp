#include "csg/core/grid_point.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace csg {
namespace {

TEST(GridPoint, Coordinate1d) {
  EXPECT_DOUBLE_EQ(coordinate_1d(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(coordinate_1d(1, 1), 0.25);
  EXPECT_DOUBLE_EQ(coordinate_1d(1, 3), 0.75);
  EXPECT_DOUBLE_EQ(coordinate_1d(2, 5), 0.625);
}

// exact_pow2 replaces every ldexp in the core and combination modules.
// Both forms are correctly rounded, so they must agree to the bit (0 ULP),
// subnormal results included.
std::uint64_t bits(real_t v) { return std::bit_cast<std::uint64_t>(v); }

/// x in [0, 1]: 0, 1, subnormals, the smallest normal, values next to 0.5
/// and 1, and a dense sweep with non-dyadic values between.
std::vector<real_t> unit_sweep() {
  using lim = std::numeric_limits<real_t>;
  std::vector<real_t> xs{0.0,
                         1.0,
                         lim::denorm_min(),
                         3 * lim::denorm_min(),
                         lim::min() / 3,
                         lim::min() - lim::denorm_min(),
                         lim::min(),
                         std::nextafter(0.5, 0.0),
                         0.5,
                         std::nextafter(0.5, 1.0),
                         std::nextafter(1.0, 0.0)};
  for (int k = 1; k < 4096; ++k) xs.push_back(k / 4096.0 + k * 1e-9 / 4096);
  for (int k = 1; k < 997; ++k) xs.push_back(k / 997.0);
  return xs;
}

TEST(GridPoint, ExactPow2IsLdexpOfOne) {
  for (int e = -1022; e <= 1023; ++e)
    ASSERT_EQ(bits(exact_pow2(e)), bits(std::ldexp(1.0, e))) << "e=" << e;
}

TEST(GridPoint, ExactPow2ScalingMatchesLdexpToTheBit) {
  // Exponents well past every call site (|e| <= kMaxLevel + kMaxDim), so
  // the x sweep's subnormals are rounded by both forms.
  for (int e = -80; e <= 80; ++e)
    for (const real_t x : unit_sweep())
      ASSERT_EQ(bits(x * exact_pow2(e)), bits(std::ldexp(x, e)))
          << "x=" << x << " e=" << e;
}

TEST(GridPoint, Coordinate1dMatchesLdexpToTheBit) {
  for (level_t l = 0; l < kMaxLevel; ++l) {
    const index1d_t top = (index1d_t{1} << (l + 1)) - 1;
    std::vector<index1d_t> is{1, top, (top / 2) | 1, (top / 3) | 1};
    // A multiplicative-hash spread of odd indices below 2^{l+1}.
    for (index1d_t k = 1; k <= 64; ++k)
      is.push_back(((k * 0x9e3779b97f4a7c15ull) & top) | 1);
    for (const index1d_t i : is) {
      ASSERT_TRUE(valid_point_1d(l, i));
      ASSERT_EQ(bits(coordinate_1d(l, i)),
                bits(std::ldexp(static_cast<real_t>(i),
                                -static_cast<int>(l + 1))))
          << "l=" << l << " i=" << i;
    }
  }
}

TEST(GridPoint, HatAndSupportIndexMatchLdexpFormsToTheBit) {
  for (level_t l = 0; l < kMaxLevel; ++l) {
    const index1d_t max_cell = (index1d_t{1} << l) - 1;
    for (const real_t x : unit_sweep()) {
      auto cell = static_cast<index1d_t>(std::ldexp(x, static_cast<int>(l)));
      if (cell > max_cell) cell = max_cell;
      const index1d_t i = support_index_1d(l, x);
      ASSERT_EQ(i, 2 * cell + 1) << "l=" << l << " x=" << x;
      const real_t v =
          real_t{1} - std::abs(x * std::ldexp(1.0, static_cast<int>(l + 1)) -
                               static_cast<real_t>(i));
      ASSERT_EQ(bits(hat_basis_1d(l, i, x)), bits(v > 0 ? v : 0))
          << "l=" << l << " x=" << x;
    }
  }
}

TEST(GridPoint, CoordinatesMultiDim) {
  const GridPoint gp{{1, 0, 2}, {1, 1, 7}};
  const CoordVector x = coordinates(gp);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 0.875);
}

TEST(GridPoint, RootHasBoundaryParents) {
  EXPECT_TRUE(left_parent_1d(0, 1).is_boundary);
  EXPECT_TRUE(right_parent_1d(0, 1).is_boundary);
}

TEST(GridPoint, Level1Parents) {
  // (1,1) at x=0.25: left endpoint x=0 (boundary), right endpoint x=0.5 =
  // the root (0,1).
  const Parent1d lp = left_parent_1d(1, 1);
  const Parent1d rp = right_parent_1d(1, 1);
  EXPECT_TRUE(lp.is_boundary);
  ASSERT_FALSE(rp.is_boundary);
  EXPECT_EQ(rp.level, 0u);
  EXPECT_EQ(rp.index, 1u);

  // (1,3) at x=0.75 mirrors it.
  const Parent1d lp3 = left_parent_1d(1, 3);
  const Parent1d rp3 = right_parent_1d(1, 3);
  ASSERT_FALSE(lp3.is_boundary);
  EXPECT_EQ(lp3.level, 0u);
  EXPECT_EQ(lp3.index, 1u);
  EXPECT_TRUE(rp3.is_boundary);
}

TEST(GridPoint, ParentCoordinatesAreSupportEndpoints) {
  // Property: for every interior point, the non-boundary parents sit at
  // x -+ h with h = 2^{-(l+1)}.
  for (level_t l = 0; l <= 8; ++l) {
    for (index1d_t i = 1; i < (index1d_t{1} << (l + 1)); i += 2) {
      const real_t x = coordinate_1d(l, i);
      const real_t h = coordinate_1d(l, 1);
      const Parent1d lp = left_parent_1d(l, i);
      const Parent1d rp = right_parent_1d(l, i);
      if (lp.is_boundary) {
        EXPECT_DOUBLE_EQ(x - h, 0.0);
      } else {
        EXPECT_LT(lp.level, l);
        EXPECT_DOUBLE_EQ(coordinate_1d(lp.level, lp.index), x - h);
      }
      if (rp.is_boundary) {
        EXPECT_DOUBLE_EQ(x + h, 1.0);
      } else {
        EXPECT_LT(rp.level, l);
        EXPECT_DOUBLE_EQ(coordinate_1d(rp.level, rp.index), x + h);
      }
    }
  }
}

TEST(GridPoint, ChildrenInvertParents) {
  // Property: a child's parent on the matching side is the original point.
  for (level_t l = 0; l <= 7; ++l) {
    for (index1d_t i = 1; i < (index1d_t{1} << (l + 1)); i += 2) {
      const index1d_t lc = left_child_index_1d(i);
      const index1d_t rc = right_child_index_1d(i);
      const Parent1d from_left = right_parent_1d(l + 1, lc);
      const Parent1d from_right = left_parent_1d(l + 1, rc);
      ASSERT_FALSE(from_left.is_boundary);
      EXPECT_EQ(from_left.level, l);
      EXPECT_EQ(from_left.index, i);
      ASSERT_FALSE(from_right.is_boundary);
      EXPECT_EQ(from_right.level, l);
      EXPECT_EQ(from_right.index, i);
    }
  }
}

TEST(GridPoint, HatBasisPeakAndSupport) {
  for (level_t l = 0; l <= 6; ++l) {
    for (index1d_t i = 1; i < (index1d_t{1} << (l + 1)); i += 2) {
      const real_t x = coordinate_1d(l, i);
      const real_t h = coordinate_1d(l, 1);
      EXPECT_DOUBLE_EQ(hat_basis_1d(l, i, x), 1.0);
      EXPECT_DOUBLE_EQ(hat_basis_1d(l, i, x - h), 0.0);
      EXPECT_DOUBLE_EQ(hat_basis_1d(l, i, x + h), 0.0);
      EXPECT_DOUBLE_EQ(hat_basis_1d(l, i, x - h / 2), 0.5);
      EXPECT_DOUBLE_EQ(hat_basis_1d(l, i, x + h / 2), 0.5);
      // Outside the support the hat is exactly zero.
      if (x + 2 * h <= 1) {
        EXPECT_DOUBLE_EQ(hat_basis_1d(l, i, x + 2 * h), 0.0);
      }
    }
  }
}

TEST(GridPoint, SupportIndexLocatesContainingBasis) {
  for (level_t l = 0; l <= 8; ++l) {
    for (real_t x : {0.0, 0.1, 0.31, 0.5, 0.77, 0.999}) {
      const index1d_t i = support_index_1d(l, x);
      EXPECT_TRUE(valid_point_1d(l, i));
      const real_t center = coordinate_1d(l, i);
      const real_t h = coordinate_1d(l, 1);
      EXPECT_GE(x, center - h);
      EXPECT_LE(x, center + h);
    }
  }
}

TEST(GridPoint, SupportIndexAtDomainEndIsLastCell) {
  EXPECT_EQ(support_index_1d(3, 1.0), (index1d_t{1} << 4) - 1);
  // and the hat there evaluates to zero: zero-boundary convention.
  EXPECT_DOUBLE_EQ(hat_basis_1d(3, support_index_1d(3, 1.0), 1.0), 0.0);
}

TEST(GridPoint, ValidPoint1d) {
  EXPECT_TRUE(valid_point_1d(0, 1));
  EXPECT_FALSE(valid_point_1d(0, 2));  // even
  EXPECT_FALSE(valid_point_1d(0, 3));  // out of range for level 0
  EXPECT_TRUE(valid_point_1d(2, 7));
  EXPECT_FALSE(valid_point_1d(2, 8));
  EXPECT_FALSE(valid_point_1d(2, 9));
}

TEST(GridPoint, ValidPointMultiDim) {
  EXPECT_TRUE(valid_point({{1, 2}, {3, 5}}));
  EXPECT_FALSE(valid_point({{1, 2}, {3, 4}}));   // even index
  EXPECT_FALSE(valid_point({{1}, {3, 5}}));      // size mismatch
  EXPECT_FALSE(valid_point({{}, {}}));           // empty
}

}  // namespace
}  // namespace csg
