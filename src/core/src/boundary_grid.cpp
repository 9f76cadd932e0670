#include "csg/core/boundary_grid.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"

namespace csg {

namespace {

/// Colex unranking of the rank-r subset of size j from {0..d-1}: for k = j
/// down to 1 pick the largest c with C(c, k) <= r. Returns the ascending
/// element list.
DimVector<dim_t> unrank_subset(dim_t d, dim_t j, std::uint64_t r,
                               const BinomialTable& binmat) {
  DimVector<dim_t> subset(j);
  for (dim_t k = j; k >= 1; --k) {
    dim_t c = k - 1;
    while (c + 1 < d && binmat(c + 1, k) <= r) ++c;
    subset[k - 1] = c;
    r -= binmat(c, k);
  }
  CSG_ASSERT(r == 0);
  return subset;
}

}  // namespace

std::uint64_t num_boundary_subgrids(dim_t d, dim_t j) {
  CSG_EXPECTS(j <= d);
  return binomial_on_the_fly(d, j) << j;
}

BoundarySparseGrid::BoundarySparseGrid(dim_t d, level_t n) : d_(d), n_(n) {
  CSG_EXPECTS(grid_points(d, n, true) &&
              "boundary grid too large for 64-bit flat indices");
  binmat_ = BinomialTable(d);
  interior_.reserve(d);
  for (dim_t k = 1; k <= d; ++k) interior_.emplace_back(k, n);
  subgrid_points_.resize(d + 1);
  group_offset_.resize(d + 2);
  group_offset_[0] = 0;
  for (dim_t j = 0; j <= d; ++j) {
    subgrid_points_[j] = (j < d) ? interior_[d - j - 1].num_points() : 1;
    group_offset_[j + 1] =
        group_offset_[j] + num_boundary_subgrids(d, j) * subgrid_points_[j];
  }
}

bool BoundarySparseGrid::contains(const BoundaryPoint& p) const {
  if (p.level.size() != d_ || p.index.size() != d_) return false;
  std::uint64_t interior_sum = 0;
  for (dim_t t = 0; t < d_; ++t) {
    if (p.fixed(t)) {
      if (p.index[t] > 1) return false;
    } else {
      if (!valid_point_1d(p.level[t], p.index[t])) return false;
      interior_sum += p.level[t];
    }
  }
  // Corners have interior_sum == 0 and satisfy this trivially (n_ >= 1).
  return interior_sum < n_;
}

std::uint64_t BoundarySparseGrid::subset_rank(const BoundaryPoint& p) const {
  std::uint64_t rank = 0;
  dim_t k = 0;
  for (dim_t t = 0; t < d_; ++t)
    if (p.fixed(t)) rank += binmat_(t, ++k);
  return rank;
}

flat_index_t BoundarySparseGrid::bp2idx(const BoundaryPoint& p) const {
  CSG_EXPECTS(p.level.size() == d_ && p.index.size() == d_);
  dim_t j = 0;
  std::uint64_t sign = 0;
  LevelVector li;
  IndexVector ii;
  for (dim_t t = 0; t < d_; ++t) {
    if (p.fixed(t)) {
      CSG_EXPECTS(p.index[t] <= 1);
      sign |= static_cast<std::uint64_t>(p.index[t]) << j;
      ++j;
    } else {
      li.push_back(p.level[t]);
      ii.push_back(p.index[t]);
    }
  }
  const std::uint64_t subgrid =
      (subset_rank(p) << j) + sign;
  const flat_index_t inner =
      (j == d_) ? 0 : interior_[d_ - j - 1].gp2idx(li, ii);
  return group_offset_[j] + subgrid * subgrid_points_[j] + inner;
}

BoundaryPoint BoundarySparseGrid::idx2bp(flat_index_t idx) const {
  CSG_EXPECTS(idx < num_points());
  dim_t j = 0;
  while (group_offset_[j + 1] <= idx) ++j;
  const flat_index_t local = idx - group_offset_[j];
  const flat_index_t block = subgrid_points_[j];
  const std::uint64_t subgrid = local / block;
  const flat_index_t inner = local % block;
  const std::uint64_t sign = subgrid & ((std::uint64_t{1} << j) - 1);
  const std::uint64_t rank = subgrid >> j;
  const DimVector<dim_t> subset = unrank_subset(d_, j, rank, binmat_);

  BoundaryPoint p;
  p.level.resize(d_);
  p.index.resize(d_);
  GridPoint ip;
  if (j < d_) ip = interior_[d_ - j - 1].idx2gp(inner);
  dim_t fixed_seen = 0, free_seen = 0;
  for (dim_t t = 0; t < d_; ++t) {
    if (fixed_seen < j && subset[fixed_seen] == t) {
      p.level[t] = kBoundaryLevel;
      p.index[t] = (sign >> fixed_seen) & 1;
      ++fixed_seen;
    } else {
      p.level[t] = ip.level[free_seen];
      p.index[t] = ip.index[free_seen];
      ++free_seen;
    }
  }
  return p;
}

BoundaryStorage::BoundaryStorage(BoundarySparseGrid grid)
    : grid_(std::move(grid)),
      values_(static_cast<std::size_t>(grid_.num_points()), real_t{0}) {}

void BoundaryStorage::sample(
    const std::function<real_t(const CoordVector&)>& f) {
  for (flat_index_t j = 0; j < size(); ++j)
    values_[static_cast<std::size_t>(j)] = f(grid_.idx2bp(j).coordinates());
}

namespace {

/// f(mask, sign, base) for every face in bp2idx order: j fixed dimensions,
/// their set `mask` (colex is numeric order), then `sign` (bit k: the k-th
/// fixed dimension's value); `base` is the face's first flat position.
template <class F>
void for_each_face(const BoundarySparseGrid& grid, F&& f) {
  const dim_t d = grid.dim();
  flat_index_t base = 0;
  for (dim_t j = 0; j <= d; ++j) {
    for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << d); ++mask) {
      if (static_cast<dim_t>(std::popcount(mask)) != j) continue;
      for (std::uint64_t sign = 0; sign < (std::uint64_t{1} << j); ++sign) {
        f(mask, sign, base);
        base += grid.subgrid_points(j);
      }
    }
  }
}

/// Per dimension t, the interior pole sweep on every face leaving t free.
/// The pole ends are the faces that also fix t (at 0 and 1), whose grid is
/// this face's without t: a family's ends are one run at its root's offset
/// there. They are not written in pass t, so every point sees the operands
/// of testing::hierarchize_boundary_pointwise: results are bit-identical.
void sweep(BoundaryStorage& storage, bool inverse) {
  const BoundarySparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  real_t* data = &storage[0];
  std::vector<flat_index_t> offs(grid.level());
  for (dim_t k = 0; k < d; ++k) {
    const dim_t t = detail::sweep_dimension(d, k, inverse);
    const std::uint32_t bit = std::uint32_t{1} << t;
    for_each_face(grid, [&](std::uint32_t mask, std::uint64_t sign,
                            flat_index_t base) {
      if (mask & bit) return;
      const auto j = static_cast<dim_t>(std::popcount(mask));
      const auto p = static_cast<dim_t>(std::popcount(mask & (bit - 1)));
      std::uint64_t rank = 0;  // colex rank of the end faces' fixed set
      for (dim_t s = 0, i = 0; s < d; ++s)
        if (((mask | bit) >> s) & 1) rank += grid.binmat()(s, ++i);
      // t is the end faces' p-th fixed dimension: a 0 bit inserted at p.
      const std::uint64_t low = sign & ((std::uint64_t{1} << p) - 1);
      const flat_index_t block = grid.subgrid_points(j + 1);
      const real_t* left = data + grid.group_offset(j + 1) +
                           ((rank << (j + 1)) + low + 2 * (sign - low)) * block;
      const real_t* right = left + (std::uint64_t{1} << p) * block;
      const RegularSparseGrid& face = grid.interior_grid(d - j);
      detail::PoleRoots root(face, t - p);
      for (std::uint64_t r = 0; r < detail::pole_root_count(face); ++r) {
        const LevelVector& l = root[r];
        const flat_index_t at =  // corner ends have no grid
            j + 1 == d ? 0
                       : grid.interior_grid(d - j - 1).subspace_offset(
                             root.rest());
        detail::transform_pole_family(face, data + base, t - p, l, inverse,
                                      offs, left + at, right + at);
      }
    });
  }
}

}  // namespace

void hierarchize(BoundaryStorage& storage) { sweep(storage, false); }

void dehierarchize(BoundaryStorage& storage) { sweep(storage, true); }

std::vector<real_t> evaluate(const BoundaryStorage& storage,
                             std::span<const CoordVector> points) {
  const BoundarySparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  std::vector<real_t> res(points.size(), 0);
  constexpr std::size_t kBlock = 64;  // evaluate_many_blocked's default
  for (std::size_t b0 = 0; b0 < points.size(); b0 += kBlock) {
    const auto pts = points.subspan(b0, std::min(kBlock, points.size() - b0));
    // One table pass over all d dimensions serves every face.
    PointBlock& block = fill_basis_tables(d, grid.level(), pts);
    for_each_face(grid, [&](std::uint32_t mask, std::uint64_t sign,
                            flat_index_t base) {
      DimVector<dim_t> free;
      for (dim_t t = 0; t < d; ++t)
        if (!((mask >> t) & 1)) free.push_back(t);
      if (!free.empty())
        evaluate_block_tables(
            grid.interior_grid(free.size()).plan(),
            {storage.values().data() + base,
             static_cast<std::size_t>(grid.subgrid_points(d - free.size()))},
            block, free);
      for (std::size_t q = 0; q < pts.size(); ++q) {
        // Weight: product of the level-0 boundary hats over fixed dims.
        real_t w = 1;
        for (dim_t t = 0, k = 0; t < d; ++t)
          if ((mask >> t) & 1)
            w *= ((sign >> k++) & 1) ? pts[q][t] : (1 - pts[q][t]);
        if (w != 0)
          res[b0 + q] += w * (free.empty() ? storage[base] : block.accum()[q]);
      }
    });
  }
  return res;
}

real_t evaluate(const BoundaryStorage& storage, const CoordVector& x) {
  return evaluate(storage, std::span<const CoordVector>(&x, 1))[0];
}

}  // namespace csg
