#include "csg/core/point_block.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "csg/testing/generators.hpp"

namespace csg {
namespace {

std::vector<CoordVector> make_points(dim_t d, std::size_t count) {
  std::mt19937_64 rng(0xb10cull);
  return testing::random_points(rng, d, count);
}

TEST(PointBlock, TransposesEveryCoordinate) {
  const dim_t d = 4;
  const auto pts = make_points(d, 13);
  PointBlock block;
  block.assign(d, 4, pts);
  ASSERT_EQ(block.dim(), d);
  ASSERT_EQ(block.size(), pts.size());
  for (dim_t t = 0; t < d; ++t) {
    const real_t* col = block.coords(t);
    for (std::size_t p = 0; p < pts.size(); ++p)
      EXPECT_EQ(col[p], pts[p][t]) << "t=" << t << " p=" << p;
  }
}

TEST(PointBlock, PadsToLaneMultipleWithZeroCoordinate) {
  // Pad coordinate 0 sits on the domain boundary: every hat product over a
  // padded slot is 0, so pad lanes flow through the kernel harmlessly.
  const dim_t d = 2;
  PointBlock block;
  for (const std::size_t count : {std::size_t{1}, kPointBlockLane - 1,
                                  kPointBlockLane, kPointBlockLane + 1,
                                  3 * kPointBlockLane + 5}) {
    block.assign(d, 4, make_points(d, count));
    const std::size_t padded =
        (count + kPointBlockLane - 1) / kPointBlockLane * kPointBlockLane;
    EXPECT_EQ(block.padded_size(), padded) << "count=" << count;
    EXPECT_EQ(block.lanes(), padded / kPointBlockLane);
    EXPECT_EQ(block.padded_size() % kPointBlockLane, 0u);
    for (dim_t t = 0; t < d; ++t)
      for (std::size_t p = count; p < padded; ++p)
        EXPECT_EQ(block.coords(t)[p], real_t{0}) << "pad slot " << p;
  }
}

TEST(PointBlock, EmptySpanYieldsZeroSizes) {
  PointBlock block;
  block.assign(3, 4, {});
  EXPECT_EQ(block.dim(), 3u);
  EXPECT_EQ(block.size(), 0u);
  EXPECT_EQ(block.padded_size(), 0u);
  EXPECT_EQ(block.lanes(), 0u);
}

TEST(PointBlock, ReassignAtOrBelowCapacityDoesNotAllocate) {
  const dim_t d = 5;
  PointBlock block;
  block.assign(d, 6, make_points(d, 64));
  const std::uint64_t grown = PointBlock::allocation_count();
  // Steady state: same shape, smaller blocks, fewer dimensions or levels —
  // all fit in the existing arena, so the process-wide growth counter must
  // stay flat.
  for (const std::size_t count : {std::size_t{64}, std::size_t{17},
                                  std::size_t{1}, std::size_t{64}}) {
    block.assign(d, 6, make_points(d, count));
    EXPECT_EQ(block.size(), count);
  }
  block.assign(d, 2, make_points(d, 64));
  // Fewer dimensions may carry more levels: 2 * 15 table rows fit in 5 * 6.
  block.assign(2, 15, make_points(2, 64));
  EXPECT_EQ(PointBlock::allocation_count(), grown);
}

TEST(PointBlock, GrowthBumpsAllocationCounter) {
  PointBlock block;
  block.assign(2, 3, make_points(2, 8));
  const std::uint64_t before = PointBlock::allocation_count();
  block.assign(2, 3, make_points(2, 8 * kPointBlockLane));  // more points
  EXPECT_GT(PointBlock::allocation_count(), before);
  const std::uint64_t after_points = PointBlock::allocation_count();
  block.assign(6, 3, make_points(6, 8));  // more dimensions
  EXPECT_GT(PointBlock::allocation_count(), after_points);
  // More levels grow the basis tables exactly once; the same shape again
  // fits.
  const std::uint64_t after_dims = PointBlock::allocation_count();
  const std::size_t bytes_before = block.memory_bytes();
  block.assign(6, 9, make_points(6, 8));
  EXPECT_EQ(PointBlock::allocation_count(), after_dims + 1);
  EXPECT_GT(block.memory_bytes(), bytes_before);
  block.assign(6, 9, make_points(6, 8));
  EXPECT_EQ(PointBlock::allocation_count(), after_dims + 1);
}

TEST(PointBlock, ScratchArraysAreDisjointFromCoordinates) {
  const dim_t d = 3;
  const auto pts = make_points(d, 10);
  PointBlock block;
  block.assign(d, 4, pts);
  for (std::size_t p = 0; p < block.padded_size(); ++p) {
    block.accum()[p] = 1.0;
    block.scratch_products()[p] = 2.0;
    block.scratch_indices()[p] = 3.0;
  }
  for (dim_t t = 0; t < d; ++t)
    for (std::size_t p = 0; p < pts.size(); ++p)
      EXPECT_EQ(block.coords(t)[p], pts[p][t]);
  EXPECT_GE(block.memory_bytes(),
            (static_cast<std::size_t>(d) + 3) * block.padded_size() *
                sizeof(real_t));
}

TEST(PointBlockDeath, CoordinateAxisOutOfRangeAborts) {
  PointBlock block;
  block.assign(2, 3, make_points(2, 4));
  EXPECT_DEATH((void)block.coords(2), "precondition");
}

TEST(PointBlockDeath, TableRowOutOfRangeAborts) {
  PointBlock block;
  block.assign(2, 3, make_points(2, 4));
  EXPECT_DEATH((void)block.cell_row(0, 3), "precondition");
  EXPECT_DEATH((void)block.hat_row(2, 0), "precondition");
}

TEST(PointBlockDeath, PointDimensionMismatchAborts) {
  PointBlock block;
  const std::vector<CoordVector> bad{CoordVector{0.5, 0.5, 0.5}};
  EXPECT_DEATH(block.assign(2, 3, bad), "precondition");
}

TEST(PointBlockDeath, CoordinateOutsideTheUnitIntervalAborts) {
  // Every evaluation and the transposed scatter transpose their points
  // here; a coordinate outside [0,1] would index past the coefficients.
  PointBlock block;
  for (const real_t bad : {-0.25, 1.25,
                           std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::infinity()}) {
    const std::vector<CoordVector> pts{CoordVector{0.5, 0.5},
                                       CoordVector{0.5, bad}};
    EXPECT_DEATH(block.assign(2, 3, pts), "precondition") << bad;
  }
}

}  // namespace
}  // namespace csg
