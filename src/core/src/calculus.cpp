#include "csg/core/calculus.hpp"

#include <cmath>

#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg {

namespace {

/// 1d hat value and one-sided derivative at x for the level-l basis with
/// index i = support_index_1d(l, x). The cell to the LEFT of x decides, so
/// gradients are left-continuous. On a grid line x = k / 2^l > 0 that is
/// cell k - 1, not i's cell k (`left_cell`); at x = 0 only cell 0 is left.
struct HatEval {
  real_t value;
  real_t derivative;
  bool left_cell;
};

HatEval hat_value_and_derivative(level_t l, index1d_t i, real_t x) {
  const real_t h_inv = exact_pow2(static_cast<int>(l + 1));
  const real_t u = x * h_inv - static_cast<real_t>(i);
  if (u <= -1) return {0, i == 1 ? h_inv : -h_inv, i != 1};
  return {1 - std::abs(u), u <= 0 ? h_inv : -h_inv, false};
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
  // left_step[t]: flat distance back to the left cell's hat, else 0.
  DimVector<flat_index_t> left_step(d);
  flat_index_t index2 = 0;
  for (level_t j = 0; j < n; ++j) {
    LevelVector l = first_level(d, j);
    const std::uint64_t subspaces = grid.subspaces_in_group(j);
    for (std::uint64_t k = 0; k < subspaces; ++k) {
      flat_index_t index1 = 0;
      level_t levels_so_far = 0;  // one cell of t: 2^(j - sum_{s<=t} l_s)
      for (dim_t t = 0; t < d; ++t) {
        // csg-lint: allow-next(one-eval-walk) -- single-point gradient, see calculus.hpp
        const index1d_t i = support_index_1d(l[t], x[t]);
        index1 = (index1 << l[t]) + ((i - 1) >> 1);
        const HatEval he = hat_value_and_derivative(l[t], i, x[t]);
        value[t] = he.value;
        deriv[t] = he.derivative;
        levels_so_far += l[t];
        left_step[t] =
            he.left_cell ? flat_index_t{1} << (j - levels_so_far) : 0;
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
        out.gradient[t] += storage[index2 + index1 - left_step[t]] *
                           prefix[t] * suffix[t] * deriv[t];
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
