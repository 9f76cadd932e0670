// Non-zero boundary extension of the compact data structure (paper Sec. 4.4).
//
// The boundary of a d-dimensional sparse grid decomposes into
// lower-dimensional zero-boundary sparse grids: fixing a subset F of j
// dimensions to 0 or 1 leaves a (d-j)-dimensional interior sparse grid on
// the remaining dimensions, and there are 2^j * C(d, j) such sub-grids of
// dimensionality d - j (Fig. 7; j = d gives the 2^d corners). Grouping
// sub-grids by j, ordering the subsets F colexicographically and the 2^j
// sign patterns numerically yields a gap-free global bijection bp2idx that
// delegates to gp2idx inside every sub-grid — exactly the extension the
// paper sketches.
//
// The d-linear algorithms run every face (sub-grid) on the interior grid's
// kernels. Per dimension the level-0 boundary hats are 1 - x and x, so
// evaluation sums over all faces the boundary weights times the face's
// interpolant: per block of points one table pass of the SoA kernel over
// all d dimensions, then per face a walk of the face grid's plan over the
// face's free dimensions of those tables. The interior pole sweep
// hierarchizes every face, with the (never-updated) adjacent faces as pole
// ends instead of zeros (DESIGN.md §15).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "csg/core/compact_storage.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/core/regular_grid.hpp"

namespace csg {

/// Sentinel level marking a dimension fixed to the boundary; the index
/// component is then 0 (x = 0) or 1 (x = 1).
inline constexpr level_t kBoundaryLevel = ~level_t{0};

/// A point of a boundary sparse grid: per dimension either an interior
/// (level, odd index) pair or kBoundaryLevel with index in {0, 1}.
struct BoundaryPoint {
  LevelVector level;
  IndexVector index;

  friend bool operator==(const BoundaryPoint&, const BoundaryPoint&) = default;

  bool fixed(dim_t t) const { return level[t] == kBoundaryLevel; }

  real_t coordinate(dim_t t) const {
    return fixed(t) ? static_cast<real_t>(index[t])
                    : coordinate_1d(level[t], index[t]);
  }

  CoordVector coordinates() const {
    CoordVector x(level.size());
    for (dim_t t = 0; t < x.size(); ++t) x[t] = coordinate(t);
    return x;
  }
};

/// Number of sub-grids of the boundary decomposition with j fixed
/// dimensions: 2^j * C(d, j).
std::uint64_t num_boundary_subgrids(dim_t d, dim_t j);

class BoundarySparseGrid {
 public:
  /// A d-dimensional sparse grid of level n with non-zero boundary: the
  /// union over j = 0..d of 2^j C(d,j) interior sparse grids of dimension
  /// d - j and level n (0-dimensional sub-grids are single corner values).
  BoundarySparseGrid(dim_t d, level_t n);

  dim_t dim() const { return d_; }
  level_t level() const { return n_; }

  /// Total number of points across all sub-grids.
  flat_index_t num_points() const { return group_offset_.back(); }

  /// First flat position of the group of sub-grids with j fixed dimensions.
  flat_index_t group_offset(dim_t j) const {
    CSG_EXPECTS(j <= d_);
    return group_offset_[j];
  }

  /// Points per sub-grid of dimensionality d - j (1 for corners).
  flat_index_t subgrid_points(dim_t j) const { return subgrid_points_[j]; }

  /// The interior descriptor shared by every sub-grid of dimension k >= 1.
  const RegularSparseGrid& interior_grid(dim_t k) const {
    CSG_EXPECTS(k >= 1 && k <= d_);
    return interior_[k - 1];
  }

  /// True iff p is structurally valid for this grid.
  bool contains(const BoundaryPoint& p) const;

  /// The global bijection: flat position of a boundary-grid point.
  flat_index_t bp2idx(const BoundaryPoint& p) const;

  /// Inverse of bp2idx.
  BoundaryPoint idx2bp(flat_index_t idx) const;

  /// Colex rank of the fixed-dimension subset of p within all j-subsets of
  /// {0..d-1}; exposed for tests.
  std::uint64_t subset_rank(const BoundaryPoint& p) const;

  const BinomialTable& binmat() const { return binmat_; }

 private:
  dim_t d_;
  level_t n_;
  BinomialTable binmat_;
  std::vector<RegularSparseGrid> interior_;      // [k-1] = grid of dim k
  std::vector<flat_index_t> subgrid_points_;     // by j = #fixed dims
  std::vector<flat_index_t> group_offset_;       // size d+2
};

/// Coefficient array over a BoundarySparseGrid.
class BoundaryStorage {
 public:
  explicit BoundaryStorage(BoundarySparseGrid grid);
  BoundaryStorage(dim_t d, level_t n) : BoundaryStorage(BoundarySparseGrid(d, n)) {}

  const BoundarySparseGrid& grid() const { return grid_; }
  flat_index_t size() const { return grid_.num_points(); }

  real_t& operator[](flat_index_t idx) {
    CSG_ASSERT(idx < size());
    return values_[static_cast<std::size_t>(idx)];
  }
  real_t operator[](flat_index_t idx) const {
    CSG_ASSERT(idx < size());
    return values_[static_cast<std::size_t>(idx)];
  }

  real_t& at(const BoundaryPoint& p) { return (*this)[grid_.bp2idx(p)]; }
  real_t at(const BoundaryPoint& p) const { return (*this)[grid_.bp2idx(p)]; }

  const std::vector<real_t>& values() const { return values_; }

  /// Sample f at every point (nodal values, including the boundary).
  void sample(const std::function<real_t(const CoordVector&)>& f);

 private:
  BoundarySparseGrid grid_;
  std::vector<real_t> values_;
};

/// In-place hierarchization with non-zero boundary: like Alg. 6 but a
/// parent on the domain boundary contributes the (nodal) boundary value of
/// the corresponding sub-grid point instead of zero. Boundary coefficients
/// themselves are nodal in their fixed dimensions and hierarchize in their
/// free dimensions, by a pole sweep over the faces.
void hierarchize(BoundaryStorage& storage);

/// Inverse of the boundary hierarchization, dimensions descending.
void dehierarchize(BoundaryStorage& storage);

/// Evaluate the boundary sparse grid function at every point in [0,1]^d:
/// per block of 64 points one table pass, then per face one walk over its
/// free dimensions; each point sums weight times face value over the faces
/// of non-zero weight, in storage order.
std::vector<real_t> evaluate(const BoundaryStorage& storage,
                             std::span<const CoordVector> points);

/// One point: a batch of one.
real_t evaluate(const BoundaryStorage& storage, const CoordVector& x);

}  // namespace csg
