#include "csg/testing/reference_evaluate.hpp"

#include <algorithm>

#include "csg/core/evaluation_plan.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg::testing {

namespace {

/// Contribution of one subspace (level components l[0..d), coefficients
/// starting at flat position `base`) to the interpolant at x: the one basis
/// with x in its support, times its coefficient. The body of Alg. 7 lines
/// 6-16, shared by both references so they produce bit-identical sums.
real_t subspace_contribution(const real_t* coeffs, const level_t* l, dim_t d,
                             flat_index_t base, const CoordVector& x) {
  real_t prod = 1;
  flat_index_t index1 = 0;
  for (dim_t t = 0; t < d; ++t) {
    const index1d_t i = support_index_1d(l[t], x[t]);
    index1 = (index1 << l[t]) + ((i - 1) >> 1);
    prod *= hat_basis_1d(l[t], i, x[t]);
    if (prod == 0) return 0;  // x on a grid line of this subspace
  }
  return prod * coeffs[base + index1];
}

}  // namespace

real_t evaluate_walk(const RegularSparseGrid& grid,
                     std::span<const real_t> coeffs, const CoordVector& x) {
  CSG_EXPECTS(x.size() == grid.dim());
  CSG_EXPECTS(coeffs.size() >= grid.num_points());
  const dim_t d = grid.dim();
  const level_t n = grid.level();
  real_t res = 0;
  flat_index_t index2 = 0;
  for (level_t j = 0; j < n; ++j) {
    LevelVector l = first_level(d, j);
    const std::uint64_t subspaces = grid.subspaces_in_group(j);
    for (std::uint64_t k = 0; k < subspaces; ++k) {
      res += subspace_contribution(coeffs.data(), l.data(), d, index2, x);
      index2 += grid.points_per_subspace(j);
      if (k + 1 < subspaces) advance_level(l);
    }
  }
  CSG_ASSERT(index2 == grid.num_points());
  return res;
}

std::vector<real_t> evaluate_blocked_scalar(
    const CompactStorage& coeffs, std::span<const CoordVector> points,
    std::size_t block_size) {
  CSG_EXPECTS(block_size >= 1);
  const EvaluationPlan& plan = coeffs.grid().plan();
  const dim_t d = plan.dim();
  const level_t* levels = plan.packed_levels();
  const flat_index_t* offsets = plan.offsets();
  const std::size_t count = plan.subspace_count();
  for (const CoordVector& x : points) CSG_EXPECTS(x.size() == d);
  std::vector<real_t> out(points.size(), 0);
  for (std::size_t b0 = 0; b0 < points.size(); b0 += block_size) {
    const std::size_t b1 = std::min(b0 + block_size, points.size());
    for (std::size_t s = 0; s < count; ++s) {
      const level_t* l = levels + s * d;
      for (std::size_t p = b0; p < b1; ++p)
        out[p] += subspace_contribution(coeffs.data(), l, d, offsets[s],
                                        points[p]);
    }
  }
  return out;
}

real_t evaluate_boundary_walk(const BoundaryStorage& storage,
                              const CoordVector& x) {
  const BoundarySparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  CSG_EXPECTS(x.size() == d);
  real_t res = 0;
  for (flat_index_t base = 0; base < grid.num_points();) {
    const BoundaryPoint face = grid.idx2bp(base);
    real_t w = 1;
    CoordVector proj;
    for (dim_t t = 0; t < d; ++t) {
      if (face.fixed(t))
        w *= face.index[t] == 1 ? x[t] : (1 - x[t]);
      else
        proj.push_back(x[t]);
    }
    const dim_t free = proj.size();
    const flat_index_t block = grid.subgrid_points(d - free);
    if (w != 0)
      res += w * (free == 0 ? storage[base]
                            : evaluate_walk(grid.interior_grid(free),
                                            {storage.values().data() + base,
                                             static_cast<std::size_t>(block)},
                                            proj));
    base += block;
  }
  return res;
}

CompactStorage restrict_to_plane_walk(const CompactStorage& storage,
                                      const DimVector<dim_t>& kept_dims,
                                      const CoordVector& anchor) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  const dim_t k = kept_dims.size();
  CSG_EXPECTS(k >= 1 && k < d);
  CSG_EXPECTS(anchor.size() == d - k);
  CompactStorage out(k, grid.level());
  const RegularSparseGrid& out_grid = out.grid();

  // Slot of each dimension among the kept or the dropped ones.
  constexpr auto kNone = static_cast<dim_t>(~0u);
  DimVector<dim_t> kept_slot(d, kNone);
  DimVector<dim_t> dropped_slot(d, kNone);
  for (dim_t t = 0, ks = 0, ds = 0; t < d; ++t) {
    if (ks < k && kept_dims[ks] == t)
      kept_slot[t] = ks++;
    else
      dropped_slot[t] = ds++;
  }

  LevelVector lk(k);
  IndexVector ik(k);
  flat_index_t pos = 0;
  for (level_t j = 0; j < grid.level(); ++j) {
    for (const LevelVector& l : LevelRange(d, j)) {
      for (dim_t t = 0; t < d; ++t)
        if (kept_slot[t] != kNone) lk[kept_slot[t]] = l[t];
      const flat_index_t out_base = out_grid.subspace_offset(lk);
      IndexVector i(d, 1);
      for (;;) {
        // Dropped-dimension weight at the anchor.
        real_t w = 1;
        for (dim_t t = 0; t < d && w != 0; ++t)
          if (dropped_slot[t] != kNone)
            w *= hat_basis_1d(l[t], i[t], anchor[dropped_slot[t]]);
        if (w != 0) {
          for (dim_t t = 0; t < d; ++t)
            if (kept_slot[t] != kNone) ik[kept_slot[t]] = i[t];
          out[out_base + out_grid.point_index_in_subspace(lk, ik)] +=
              w * storage[pos];
        }
        ++pos;
        // Row-major odometer over the subspace's odd indices.
        dim_t t = d;
        bool carry = true;
        while (t-- > 0) {
          i[t] += 2;
          if (i[t] < (index1d_t{1} << (l[t] + 1))) {
            carry = false;
            break;
          }
          i[t] = 1;
        }
        if (carry) break;
      }
    }
  }
  CSG_ASSERT(pos == grid.num_points());
  return out;
}

}  // namespace csg::testing
