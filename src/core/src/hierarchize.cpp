#include "csg/core/hierarchize.hpp"

#include "csg/core/level_enumeration.hpp"

namespace csg {

namespace {

/// Scalar Alg. 1 recursion over one pole of dimension t in the flat array,
/// entered at level 1 below the pole's read-only level-0 point.
/// Point (lev, c) — c = (i-1)/2 — sits at offs[lev] + ((A << lev) + c) * S
/// + B. Forward: children consume the pre-update ancestor values riding
/// down the recursion; inverse: the point is restored before its children
/// read it.
struct PoleTransform {
  real_t* data;
  const flat_index_t* offs;
  flat_index_t prefix;  // A
  flat_index_t stride;  // S
  flat_index_t suffix;  // B
  level_t budget;

  flat_index_t position(level_t lev, flat_index_t c) const {
    return offs[lev] + ((prefix << lev) + c) * stride + suffix;
  }

  void forward(level_t lev, flat_index_t c, real_t left, real_t right) const {
    const flat_index_t pos = position(lev, c);
    const real_t cur = data[pos];
    if (lev < budget) {
      forward(lev + 1, 2 * c, left, cur);
      forward(lev + 1, 2 * c + 1, cur, right);
    }
    data[pos] = cur - (left + right) / 2;
  }

  void inverse(level_t lev, flat_index_t c, real_t left, real_t right) const {
    const flat_index_t pos = position(lev, c);
    const real_t cur = data[pos] + (left + right) / 2;
    data[pos] = cur;
    if (lev < budget) {
      inverse(lev + 1, 2 * c, left, cur);
      inverse(lev + 1, 2 * c + 1, cur, right);
    }
  }
};

void sweep(CompactStorage& storage, bool inverse) {
  const RegularSparseGrid& grid = storage.grid();
  const std::uint64_t roots = detail::pole_root_count(grid);
  std::vector<flat_index_t> offs(grid.level());
  for (dim_t k = 0; k < grid.dim(); ++k) {
    const dim_t t = detail::sweep_dimension(grid.dim(), k, inverse);
    detail::PoleRoots root(grid, t);
    for (std::uint64_t r = 0; r < roots; ++r)
      detail::transform_pole_family(storage, t, root[r], inverse, offs);
  }
}

}  // namespace

namespace detail {

std::uint64_t pole_root_count(const RegularSparseGrid& grid) {
  const dim_t d = grid.dim();
  // sum_{j<n} C(d-2+j, d-2) = C(d-2+n, d-1)
  return d == 1 ? 1 : grid.binmat()(d - 2 + grid.level(), d - 1);
}

PoleRoots::PoleRoots(const RegularSparseGrid& grid, dim_t t)
    : grid_(&grid), t_(t), rank_(pole_root_count(grid)), root_(grid.dim(), 0) {
  CSG_EXPECTS(t < grid.dim());
}

const LevelVector& PoleRoots::operator[](std::uint64_t r) {
  CSG_EXPECTS(r < pole_root_count(*grid_));
  const dim_t d = grid_->dim();
  if (d == 1 || r == rank_) return root_;
  if (r == rank_ + 1) {
    if (!advance_level(rest_)) rest_ = first_level(d - 1, ++group_);
  } else {
    std::uint64_t k = r;
    for (group_ = 0;; ++group_) {
      const std::uint64_t size = num_subspaces(d - 1, group_, grid_->binmat());
      if (k < size) break;
      k -= size;
    }
    rest_ = unrank_subspace(d - 1, group_, k, grid_->binmat());
  }
  rank_ = r;
  for (dim_t s = 0; s + 1 < d; ++s) root_[s < t_ ? s : s + 1] = rest_[s];
  return root_;
}

void transform_pole_family(CompactStorage& storage, dim_t t,
                           const LevelVector& root, bool inverse,
                           std::span<flat_index_t> offs) {
  const RegularSparseGrid& grid = storage.grid();
  const auto budget = static_cast<level_t>(grid.level() - 1 - root.l1_norm());
  CSG_ASSERT(root[t] == 0 && offs.size() > budget);
  // A pole's level-0 point has both parents on the boundary, so its update
  // would add or subtract zero: it is only read, and single-point poles
  // are skipped outright (the group-order oracle never touches them either).
  if (budget == 0) return;
  LevelVector lt = root;
  for (level_t lev = 0; lev <= budget; ++lev) {
    lt[t] = lev;
    offs[lev] = grid.subspace_offset(lt);
  }
  flat_index_t prefix_count = 1, stride = 1;
  for (dim_t s = 0; s < t; ++s) prefix_count <<= root[s];
  for (dim_t s = t + 1; s < grid.dim(); ++s) stride <<= root[s];
  PoleTransform pole{storage.data(), offs.data(), 0, stride, 0, budget};
  for (flat_index_t a = 0; a < prefix_count; ++a) {
    pole.prefix = a;
    for (flat_index_t b = 0; b < stride; ++b) {
      pole.suffix = b;
      const real_t top = storage.data()[pole.position(0, 0)];
      if (inverse) {
        pole.inverse(1, 0, 0, top);
        pole.inverse(1, 1, top, 0);
      } else {
        pole.forward(1, 0, 0, top);
        pole.forward(1, 1, top, 0);
      }
    }
  }
}

}  // namespace detail

void hierarchize(CompactStorage& storage) { sweep(storage, false); }

void dehierarchize(CompactStorage& storage) { sweep(storage, true); }

}  // namespace csg
