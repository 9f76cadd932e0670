#include "csg/testing/reference_hierarchize.hpp"

#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg::testing {

flat_index_t parent_flat_index(const RegularSparseGrid& grid, LevelVector l,
                               IndexVector i, dim_t t, bool right) {
  const Parent1d p =
      right ? right_parent_1d(l[t], i[t]) : left_parent_1d(l[t], i[t]);
  if (p.is_boundary) return kBoundaryParent;
  l[t] = p.level;
  i[t] = p.index;
  return grid.gp2idx(l, i);
}

namespace {

/// Advance the index odometer of subspace l to the next row-major point;
/// returns false after the last point.
bool advance_index(const LevelVector& l, IndexVector& i) {
  for (dim_t t = l.size(); t-- > 0;) {
    i[t] += 2;
    if (i[t] < (index1d_t{1} << (l[t] + 1))) return true;
    i[t] = 1;
  }
  return false;
}

real_t parent_value(const CompactStorage& storage, const LevelVector& l,
                    const IndexVector& i, dim_t t, bool right) {
  const flat_index_t p =
      parent_flat_index(storage.grid(), l, i, t, right);
  return p == kBoundaryParent ? real_t{0} : storage[p];
}

/// One level group j along dimension t, in flat order: every point gets
/// (left + right) / 2 subtracted (forward) or added back (inverse).
void transform_group(CompactStorage& storage, dim_t t, level_t j,
                     bool inverse) {
  const RegularSparseGrid& grid = storage.grid();
  flat_index_t pos = grid.group_offset(j);
  for (const LevelVector& l : LevelRange(grid.dim(), j)) {
    // Points with l[t] == 0 have both parents on the boundary: no-op.
    if (l[t] == 0) {
      pos += grid.points_per_subspace(j);
      continue;
    }
    IndexVector i(grid.dim(), 1);
    do {
      const real_t v1 = parent_value(storage, l, i, t, /*right=*/false);
      const real_t v2 = parent_value(storage, l, i, t, /*right=*/true);
      if (inverse)
        storage[pos] += (v1 + v2) / 2;
      else
        storage[pos] -= (v1 + v2) / 2;
      ++pos;
    } while (advance_index(l, i));
  }
  CSG_ASSERT(pos == grid.group_offset(j + 1));
}

}  // namespace

void hierarchize_groups(CompactStorage& storage) {
  const dim_t d = storage.grid().dim();
  const level_t n = storage.grid().level();
  for (dim_t t = 0; t < d; ++t)
    for (level_t j = n; j-- > 1;) transform_group(storage, t, j, false);
}

void dehierarchize_groups(CompactStorage& storage) {
  const dim_t d = storage.grid().dim();
  const level_t n = storage.grid().level();
  for (dim_t t = d; t-- > 0;)
    for (level_t j = 1; j < n; ++j) transform_group(storage, t, j, true);
}

void hierarchize_literal(CompactStorage& storage) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  for (dim_t t = 0; t < d; ++t) {
    for (flat_index_t j = grid.num_points(); j-- > 0;) {
      const GridPoint gp = grid.idx2gp(j);
      const real_t v1 = parent_value(storage, gp.level, gp.index, t, false);
      const real_t v2 = parent_value(storage, gp.level, gp.index, t, true);
      storage[j] -= (v1 + v2) / 2;
    }
  }
}

}  // namespace csg::testing
