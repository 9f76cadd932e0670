#include "csg/core/calculus.hpp"

#include <cmath>

#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg {

namespace {

/// 1d hat value and one-sided derivative at x for the level-l basis with
/// index i. At the kink (x on the center) and at the support edges the
/// cell to the LEFT of x decides, so piecewise-constant gradients are
/// left-continuous.
struct HatEval {
  real_t value;
  real_t derivative;
};

HatEval hat_value_and_derivative(level_t l, index1d_t i, real_t x) {
  const real_t h_inv = exact_pow2(static_cast<int>(l + 1));
  const real_t u = x * h_inv - static_cast<real_t>(i);
  if (u <= -1 || u >= 1) return {0, 0};
  return {1 - std::abs(u), u <= 0 ? h_inv : -h_inv};
}

}  // namespace

ValueAndGradient evaluate_with_gradient(const CompactStorage& storage,
                                        const CoordVector& x) {
  const RegularSparseGrid& grid = storage.grid();
  CSG_EXPECTS(x.size() == grid.dim());
  const dim_t d = grid.dim();
  const level_t n = grid.level();
  ValueAndGradient out{0, CoordVector(d, 0)};

  DimVector<real_t> value(d), deriv(d), prefix(d), suffix(d);
  flat_index_t index2 = 0;
  for (level_t j = 0; j < n; ++j) {
    LevelVector l = first_level(d, j);
    const std::uint64_t subspaces = grid.subspaces_in_group(j);
    for (std::uint64_t k = 0; k < subspaces; ++k) {
      flat_index_t index1 = 0;
      for (dim_t t = 0; t < d; ++t) {
        const index1d_t i = support_index_1d(l[t], x[t]);
        index1 = (index1 << l[t]) + ((i - 1) >> 1);
        const HatEval he = hat_value_and_derivative(l[t], i, x[t]);
        value[t] = he.value;
        deriv[t] = he.derivative;
      }
      // prefix[t] = prod_{s<t} value[s], suffix[t] = prod_{s>t} value[s]:
      // no divisions, so zero factors (x on a grid line) stay exact.
      real_t acc = 1;
      for (dim_t t = 0; t < d; ++t) {
        prefix[t] = acc;
        acc *= value[t];
      }
      const real_t coeff = storage[index2 + index1];
      out.value += coeff * acc;
      acc = 1;
      for (dim_t t = d; t-- > 0;) {
        suffix[t] = acc;
        acc *= value[t];
      }
      for (dim_t t = 0; t < d; ++t)
        out.gradient[t] += coeff * prefix[t] * suffix[t] * deriv[t];
      index2 += grid.points_per_subspace(j);
      if (k + 1 < subspaces) advance_level(l);
    }
  }
  return out;
}

real_t integrate(const CompactStorage& storage) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  real_t total = 0;
  for (level_t j = 0; j < grid.level(); ++j) {
    real_t group_sum = 0;
    const flat_index_t end = grid.group_offset(j + 1);
    for (flat_index_t idx = grid.group_offset(j); idx < end; ++idx)
      group_sum += storage[idx];
    total += group_sum * exact_pow2(-static_cast<int>(j + d));
  }
  return total;
}

std::vector<real_t> max_surplus_per_group(const CompactStorage& storage) {
  const RegularSparseGrid& grid = storage.grid();
  std::vector<real_t> out(grid.level(), 0);
  for (level_t j = 0; j < grid.level(); ++j) {
    const flat_index_t end = grid.group_offset(j + 1);
    for (flat_index_t idx = grid.group_offset(j); idx < end; ++idx)
      out[j] = std::max(out[j], std::abs(storage[idx]));
  }
  return out;
}

}  // namespace csg
