// Grid points of the hierarchical basis and their 1d hierarchy relations.
//
// A point is a pair (l, i) of level and index vectors (0-based levels).
// In each dimension the point (l_t, i_t) sits at x_t = i_t * 2^{-(l_t+1)},
// its hat basis has support [x - h, x + h] with h = 2^{-(l_t+1)}, and its
// hierarchical parents are the grid points at the two support endpoints
// (Fig. 5 right). Endpoints on the domain boundary have no parent; for the
// zero-boundary grids of the paper their value contribution is 0.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "csg/core/dim_vector.hpp"
#include "csg/core/types.hpp"

namespace csg {

/// A sparse grid point: level vector + index vector, componentwise
/// 1 <= i_t <= 2^{l_t+1} - 1 with i_t odd.
struct GridPoint {
  LevelVector level;
  IndexVector index;

  friend bool operator==(const GridPoint&, const GridPoint&) = default;
};

/// The result of a 1d parent lookup: either a real grid point (level, index)
/// or the domain boundary (x = 0 or x = 1), where zero-boundary functions
/// contribute nothing.
struct Parent1d {
  bool is_boundary;
  level_t level;    // valid iff !is_boundary
  index1d_t index;  // valid iff !is_boundary

  static Parent1d boundary() { return {true, 0, 0}; }
  static Parent1d at(level_t l, index1d_t i) { return {false, l, i}; }
};

/// Exactly 2^e, built from the exponent bits, for e in the normal range
/// [-1022, 1023]. Multiplying by an exact power of two is correctly rounded,
/// and so is ldexp, so x * exact_pow2(e) is bit-identical to ldexp(x, e)
/// for every x (subnormal results, 0, inf and NaN included), without the
/// library call.
inline real_t exact_pow2(int e) {
  static_assert(std::numeric_limits<real_t>::is_iec559 &&
                sizeof(real_t) == sizeof(std::uint64_t));
  CSG_ASSERT(e >= -1022 && e <= 1023);
  return std::bit_cast<real_t>(static_cast<std::uint64_t>(e + 1023) << 52);
}

/// Coordinate of the 1d point (l, i): i * 2^{-(l+1)}, one multiplication by
/// an exact power of two (bit-identical to ldexp; i < 2^{kMaxLevel}
/// converts to real_t exactly).
inline real_t coordinate_1d(level_t l, index1d_t i) {
  return static_cast<real_t>(i) * exact_pow2(-static_cast<int>(l + 1));
}

/// Coordinates of a d-dimensional grid point.
inline CoordVector coordinates(const GridPoint& gp) {
  CoordVector x(gp.level.size());
  for (dim_t t = 0; t < x.size(); ++t)
    x[t] = coordinate_1d(gp.level[t], gp.index[t]);
  return x;
}

namespace detail {
/// Decompose the even endpoint index e = i -+ 1 (at level l) into the grid
/// point at coordinate e * 2^{-(l+1)}: strip the trailing zero bits s of e;
/// the parent lives at 0-based level l - s with odd index e >> s.
inline Parent1d endpoint_to_parent(level_t l, index1d_t e) {
  if (e == 0) return Parent1d::boundary();          // x = 0
  const int s = std::countr_zero(e);
  if (static_cast<level_t>(s) > l) return Parent1d::boundary();  // x = 1
  return Parent1d::at(l - static_cast<level_t>(s), e >> s);
}
}  // namespace detail

/// Left hierarchical parent of the 1d point (l, i): the grid point at the
/// left end of the basis support, coordinate (i-1) * 2^{-(l+1)}.
inline Parent1d left_parent_1d(level_t l, index1d_t i) {
  CSG_ASSERT(i % 2 == 1);
  return detail::endpoint_to_parent(l, i - 1);
}

/// Right hierarchical parent of the 1d point (l, i), coordinate
/// (i+1) * 2^{-(l+1)}.
inline Parent1d right_parent_1d(level_t l, index1d_t i) {
  CSG_ASSERT(i % 2 == 1);
  return detail::endpoint_to_parent(l, i + 1);
}

/// Hierarchical children of the 1d point (l, i): both on level l + 1, at
/// indices 2i - 1 (left) and 2i + 1 (right).
inline index1d_t left_child_index_1d(index1d_t i) { return 2 * i - 1; }
inline index1d_t right_child_index_1d(index1d_t i) { return 2 * i + 1; }

/// The 1d hat function of the point (l, i) evaluated at x:
/// max(1 - |x - x_{l,i}| / h, 0) with h = 2^{-(l+1)}.
inline real_t hat_basis_1d(level_t l, index1d_t i, real_t x) {
  const real_t h_inv = exact_pow2(static_cast<int>(l + 1));
  const real_t v = real_t{1} - std::abs(x * h_inv - static_cast<real_t>(i));
  return v > 0 ? v : 0;
}

/// Index (odd) of the level-l basis function whose support contains x,
/// for x in [0, 1]. This is the cell-locate step of Alg. 7 lines 9-12.
/// At x == 1 the last cell is returned; its hat evaluates to 0 there, which
/// is exactly the zero-boundary convention.
inline index1d_t support_index_1d(level_t l, real_t x) {
  CSG_ASSERT(x >= 0 && x <= 1);
  auto cell = static_cast<index1d_t>(x * exact_pow2(static_cast<int>(l)));
  const index1d_t max_cell = (index1d_t{1} << l) - 1;
  if (cell > max_cell) cell = max_cell;  // guards x == 1-eps rounding up
  return 2 * cell + 1;
}

/// True iff (l, i) is a valid interior grid point in one dimension.
inline bool valid_point_1d(level_t l, index1d_t i) {
  return i % 2 == 1 && i >= 1 && i < (index1d_t{1} << (l + 1));
}

/// True iff gp is a structurally valid grid point of any grid with dimension
/// gp.level.size().
inline bool valid_point(const GridPoint& gp) {
  if (gp.level.size() != gp.index.size() || gp.level.empty()) return false;
  for (dim_t t = 0; t < gp.level.size(); ++t)
    if (!valid_point_1d(gp.level[t], gp.index[t])) return false;
  return true;
}

}  // namespace csg
