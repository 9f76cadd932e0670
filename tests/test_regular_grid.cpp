#include "csg/core/regular_grid.hpp"
#include "csg/testing/param_names.hpp"
#include "csg/testing/property.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace csg {
namespace {

TEST(RegularGrid, PointCountsMatchThePaper) {
  // Sec. 6: level-11 grids for d = 1..10 span [2047, 127574017] points.
  EXPECT_EQ(regular_grid_num_points(1, 11), 2047u);
  EXPECT_EQ(regular_grid_num_points(10, 11), 127574017u);
}

TEST(RegularGrid, PointCountsSmallKnownValues) {
  // d=1: 2^n - 1 points.
  for (level_t n = 1; n <= 10; ++n)
    EXPECT_EQ(regular_grid_num_points(1, n), (flat_index_t{1} << n) - 1);
  // d=2, n=3: groups of 1, 2*2, 3*4 points = 17 (the Fig. 3 sparse grid).
  EXPECT_EQ(regular_grid_num_points(2, 3), 17u);
  // d=3, n=3: 1 + 3*2 + 6*4 = 31.
  EXPECT_EQ(regular_grid_num_points(3, 3), 31u);
}

TEST(RegularGrid, GroupOffsetsPartitionTheArray) {
  RegularSparseGrid g(4, 6);
  EXPECT_EQ(g.group_offset(0), 0u);
  flat_index_t expected = 0;
  for (level_t j = 0; j < 6; ++j) {
    EXPECT_EQ(g.group_offset(j), expected);
    EXPECT_EQ(g.group_size(j), g.subspaces_in_group(j) * g.points_per_subspace(j));
    expected += g.group_size(j);
  }
  EXPECT_EQ(g.num_points(), expected);
}

TEST(RegularGrid, GroupOfInvertsGroupOffsets) {
  RegularSparseGrid g(3, 7);
  for (level_t j = 0; j < 7; ++j) {
    EXPECT_EQ(g.group_of(g.group_offset(j)), j);
    EXPECT_EQ(g.group_of(g.group_offset(j + 1) - 1), j);
  }
}

struct DimLevel {
  dim_t d;
  level_t n;
};

class GridSweep : public ::testing::TestWithParam<DimLevel> {};

TEST_P(GridSweep, Gp2IdxIsABijectionOntoConsecutiveIntegers) {
  const auto [d, n] = GetParam();
  RegularSparseGrid g(d, n);
  std::set<flat_index_t> seen;
  // Exhaustive: every idx decodes to a contained point that encodes back.
  for (flat_index_t idx = 0; idx < g.num_points(); ++idx) {
    const GridPoint gp = g.idx2gp(idx);
    EXPECT_TRUE(g.contains(gp));
    EXPECT_EQ(g.gp2idx(gp), idx);
    EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), g.num_points());
}

TEST_P(GridSweep, SubspaceOffsetsAreContiguousInEnumerationOrder) {
  const auto [d, n] = GetParam();
  RegularSparseGrid g(d, n);
  flat_index_t expected = 0;
  for (level_t j = 0; j < n; ++j) {
    for (const LevelVector& l : LevelRange(d, j)) {
      EXPECT_EQ(g.subspace_offset(l), expected);
      expected += g.points_per_subspace(j);
    }
  }
  EXPECT_EQ(expected, g.num_points());
}

TEST_P(GridSweep, PointIndexRoundTripsWithinSubspace) {
  const auto [d, n] = GetParam();
  RegularSparseGrid g(d, n);
  for (level_t j = 0; j < n; ++j) {
    for (const LevelVector& l : LevelRange(d, j)) {
      for (flat_index_t k = 0; k < g.points_per_subspace(j); ++k) {
        const IndexVector i = g.point_in_subspace(l, k);
        EXPECT_EQ(g.point_index_in_subspace(l, i), k);
        EXPECT_TRUE(valid_point({l, i}));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridSweep,
    ::testing::Values(DimLevel{1, 1}, DimLevel{1, 8}, DimLevel{2, 6},
                      DimLevel{3, 5}, DimLevel{4, 4}, DimLevel{5, 4},
                      DimLevel{6, 3}, DimLevel{10, 2}),
    [](const ::testing::TestParamInfo<DimLevel>& tpi) {
      return csg::testing::dn_name(tpi.param.d, tpi.param.n);
    });

TEST(RegularGrid, RandomizedBijectionAtPaperScale) {
  // d=10, n=11 is too large for exhaustion; sample random flat positions.
  // A property so every iteration draws an independent sample set and a
  // failure prints its CSG_PROPERTY_SEED replay line (docs/TESTING.md).
  RegularSparseGrid g(10, 11);
  ASSERT_EQ(g.num_points(), 127574017u);
  const auto r = testing::run_property(
      {"bijection_at_paper_scale", 8}, [&](std::mt19937_64& rng) {
        std::uniform_int_distribution<flat_index_t> dist(0,
                                                         g.num_points() - 1);
        for (int trial = 0; trial < 4000; ++trial) {
          const flat_index_t idx = dist(rng);
          const GridPoint gp = g.idx2gp(idx);
          if (!g.contains(gp))
            return "idx2gp(" + std::to_string(idx) +
                   ") left the grid (contains() = false)";
          if (const flat_index_t back = g.gp2idx(gp); back != idx)
            return "round trip " + std::to_string(idx) + " -> gp -> " +
                   std::to_string(back);
        }
        return std::string{};
      });
  EXPECT_TRUE(r.passed) << r.detail;
}

// idx2gp memoises the last (d, j, rank) -> level-vector unranking per
// thread. Interleaving grids that share d but not n, share n but not d, and
// d = 1 must never hand out a stale level vector.
std::string check_idx2gp(const RegularSparseGrid& g, flat_index_t idx) {
  const GridPoint gp = g.idx2gp(idx);
  const level_t j = g.group_of(idx);
  const LevelVector fresh = unrank_subspace(
      g.dim(), j, (idx - g.group_offset(j)) >> j, g.binmat());
  if (gp.level != fresh)
    return "grid (" + std::to_string(g.dim()) + "," +
           std::to_string(g.level()) + ") idx " + std::to_string(idx) +
           ": memoised level differs from unrank_subspace";
  if (const flat_index_t back = g.gp2idx(gp); back != idx)
    return "grid (" + std::to_string(g.dim()) + "," +
           std::to_string(g.level()) + ") round trip " + std::to_string(idx) +
           " -> gp -> " + std::to_string(back);
  return {};
}

const std::vector<RegularSparseGrid>& interleaved_grids() {
  static const std::vector<RegularSparseGrid> grids{
      {3, 5}, {3, 6}, {4, 5}, {1, 7}};
  return grids;
}

TEST(RegularGrid, Idx2GpMemoSequentialInterleavedGrids) {
  // Each grid walks its storage order once, in runs of 3 consecutive
  // positions taken round robin with the other grids. Grid k starts k
  // quarters of the way in (wrapping), so a memo hit within a run and a
  // switch between grids that differ in d, in j, or in rank alone all occur.
  const auto& grids = interleaved_grids();
  constexpr flat_index_t kRun = 3;
  flat_index_t longest = 0;
  for (const auto& g : grids) longest = std::max(longest, g.num_points());
  for (flat_index_t step = 0; step < longest; step += kRun)
    for (std::size_t k = 0; k < grids.size(); ++k) {
      const flat_index_t size = grids[k].num_points();
      for (flat_index_t s = step; s < std::min(step + kRun, size); ++s) {
        const std::string err =
            check_idx2gp(grids[k], (s + k * size / 4) % size);
        ASSERT_TRUE(err.empty()) << err;
      }
    }
}

TEST(RegularGrid, Idx2GpMemoRandomInterleavedGrids) {
  const auto r = testing::run_property(
      {"idx2gp_memo_interleaved", 8}, [](std::mt19937_64& rng) {
        const auto& grids = interleaved_grids();
        std::uniform_int_distribution<std::size_t> pick(0, grids.size() - 1);
        for (int trial = 0; trial < 2000; ++trial) {
          const RegularSparseGrid& g = grids[pick(rng)];
          std::uniform_int_distribution<flat_index_t> dist(
              0, g.num_points() - 1);
          if (std::string err = check_idx2gp(g, dist(rng)); !err.empty())
            return err;
        }
        return std::string{};
      });
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(RegularGrid, ContainsRejectsOutOfGridPoints) {
  RegularSparseGrid g(2, 3);
  EXPECT_TRUE(g.contains({{0, 0}, {1, 1}}));
  EXPECT_TRUE(g.contains({{2, 0}, {5, 1}}));
  EXPECT_FALSE(g.contains({{2, 1}, {5, 1}}));  // |l| = 3 >= n
  EXPECT_FALSE(g.contains({{0, 0}, {2, 1}}));  // even index
  EXPECT_FALSE(g.contains({{0}, {1}}));        // wrong dimension
}

TEST(RegularGrid, EqualityByShape) {
  EXPECT_EQ(RegularSparseGrid(3, 4), RegularSparseGrid(3, 4));
  EXPECT_FALSE(RegularSparseGrid(3, 4) == RegularSparseGrid(3, 5));
  EXPECT_FALSE(RegularSparseGrid(3, 4) == RegularSparseGrid(4, 4));
}

TEST(RegularGrid, BinmatLargeEnoughForAllSubspaceQueries) {
  RegularSparseGrid g(6, 9);
  EXPECT_GE(g.binmat().max_row(), 6u - 1 + 9);
}

TEST(RegularGridDeath, RejectsZeroDimension) {
  EXPECT_DEATH(RegularSparseGrid(0, 3), "precondition");
}

TEST(RegularGridDeath, RejectsZeroLevel) {
  EXPECT_DEATH(RegularSparseGrid(3, 0), "precondition");
}

TEST(RegularGridDeath, RejectsOversizedGrids) {
  // d = kMaxDim at n = kMaxLevel would overflow 63-bit flat indices.
  EXPECT_DEATH(RegularSparseGrid(kMaxDim, kMaxLevel), "precondition");
}

TEST(RegularGridDeath, Idx2GpOutOfRangeAborts) {
  RegularSparseGrid g(2, 3);
  EXPECT_DEATH(g.idx2gp(g.num_points()), "precondition");
}

}  // namespace
}  // namespace csg
