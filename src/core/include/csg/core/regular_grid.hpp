// RegularSparseGrid: the descriptor of a regular (non-adaptive) sparse grid
// of dimension d and refinement level n, together with the bijection gp2idx
// (Alg. 5) and its inverse idx2gp.
//
// The grid contains every subspace with |l|_1 <= n - 1. Points are laid out
// exactly as in Fig. 6: level groups (|l|_1 = 0, 1, ..., n-1) back to back,
// within a group the subspaces in Alg. 3 enumeration order, within a
// subspace the points in row-major order of (i_t - 1) / 2. The flat position
// of a point decomposes as index1 + index2 + index3 (paper Sec. 4.1).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "csg/core/binomial_table.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"
#include "csg/core/types.hpp"

namespace csg {

class EvaluationPlan;

/// Points of the grid of dimension d and level n — with `boundary`, of its
/// boundary grid: 2^j C(d, j) faces of dimension d - j (Sec. 4.4) — counted
/// in 128 bits, N(k) = sum_{j<n} C(k-1+j, k-1) 2^j per face, N(0) = 1.
/// Empty when the count does not fit 64-bit flat indices (2^63 or more).
inline std::optional<flat_index_t> grid_points(dim_t d, level_t n,
                                               bool boundary = false) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  CSG_EXPECTS(n >= 1 && n <= kMaxLevel);
  const auto face = [n](dim_t k) {
    unsigned __int128 points = k == 0 ? 1 : 0;
    for (level_t j = 0; k > 0 && j < n; ++j)
      points += static_cast<unsigned __int128>(
                    binomial_on_the_fly(k - 1 + j, k - 1)) << j;
    return points;
  };
  unsigned __int128 total = 0;
  for (dim_t j = 0; j <= (boundary ? d : 0); ++j)
    total += (static_cast<unsigned __int128>(binomial_on_the_fly(d, j))
              << j) * face(d - j);
  if (total >> 63) return std::nullopt;
  return static_cast<flat_index_t>(total);
}

class RegularSparseGrid {
 public:
  /// A grid of dimension d >= 1 with n >= 1 level groups (the paper's
  /// "sparse grid of level n"). Precomputes binmat and the level-group
  /// offset table; both are O(d * n) small.
  RegularSparseGrid(dim_t d, level_t n)
      : d_(d), n_(n), plan_(std::make_shared<PlanSlot>()) {
    CSG_EXPECTS(grid_points(d, n) && "grid too large for 64-bit flat indices");
    binmat_ = BinomialTable(d - 1 + n);
    group_offset_.resize(n + 1);
    for (level_t j = 0; j < n; ++j)
      group_offset_[j + 1] =
          group_offset_[j] + (num_subspaces(d, j, binmat_) << j);
  }

  dim_t dim() const { return d_; }

  /// The refinement level n: subspaces satisfy |l|_1 <= n - 1.
  level_t level() const { return n_; }

  /// Total number of grid points N = sum_{j<n} C(d-1+j, d-1) * 2^j.
  flat_index_t num_points() const { return group_offset_[n_]; }

  const BinomialTable& binmat() const { return binmat_; }

  /// index3 for |l|_1 = j: number of coefficients in all level groups < j.
  flat_index_t group_offset(level_t j) const {
    CSG_EXPECTS(j <= n_);
    return group_offset_[j];
  }

  /// Number of coefficients in level group j.
  flat_index_t group_size(level_t j) const {
    return group_offset(j + 1) - group_offset(j);
  }

  /// Number of subspaces in level group j (= |L^d_j|).
  std::uint64_t subspaces_in_group(level_t j) const {
    CSG_EXPECTS(j < n_);
    return num_subspaces(d_, j, binmat_);
  }

  /// Number of points per subspace in level group j (= 2^j).
  flat_index_t points_per_subspace(level_t j) const {
    CSG_EXPECTS(j < n_);
    return flat_index_t{1} << j;
  }

  /// True iff (l, i) designates a point of this grid.
  bool contains(const GridPoint& gp) const {
    return gp.level.size() == d_ && valid_point(gp) &&
           gp.level.l1_norm() < n_;
  }

  /// index1 of Alg. 5: row-major position of i within its subspace l.
  flat_index_t point_index_in_subspace(const LevelVector& l,
                                       const IndexVector& i) const {
    flat_index_t index1 = 0;
    // The accumulated shift count is |l|_1 <= n - 1 < kMaxLevel, so the
    // running index never shifts past the 64-bit accumulator (anchor for
    // the csg-lint shift-width rule; widths pinned in types.hpp).
    static_assert(sizeof(index1) == 8 && kMaxLevel < 64);
    for (dim_t t = 0; t < d_; ++t)
      index1 = (index1 << l[t]) + ((i[t] - 1) >> 1);
    return index1;
  }

  /// Flat offset of the first coefficient of subspace l
  /// (= index2 + index3 of Alg. 5).
  flat_index_t subspace_offset(const LevelVector& l) const {
    const auto lsum = static_cast<level_t>(l.l1_norm());
    CSG_ASSERT(lsum < n_);
    return group_offset_[lsum] + (subspace_index(l, binmat_) << lsum);
  }

  /// The bijection gp2idx (Alg. 5): flat position of the point (l, i).
  /// O(d) with O(1) binmat lookups; no memory allocated.
  flat_index_t gp2idx(const LevelVector& l, const IndexVector& i) const {
    CSG_ASSERT(contains({l, i}));
    return point_index_in_subspace(l, i) + subspace_offset(l);
  }

  flat_index_t gp2idx(const GridPoint& gp) const {
    return gp2idx(gp.level, gp.index);
  }

  /// Inverse bijection: the grid point stored at flat position idx.
  /// Locate the level group (O(log n)), take the subspace level vector from
  /// a per-thread memo of the last (d, j, rank) -> l unranking, and decode
  /// i in place. The 2^j consecutive points of a subspace share one
  /// unranking, so sequential access (sampling in storage order) costs
  /// amortised O(d); a memo miss pays the O(d + n) unrank_subspace scan.
  /// The key needs no n: the level vector depends only on (d, j, rank),
  /// because binmat holds the same binomials in every grid.
  GridPoint idx2gp(flat_index_t idx) const {
    CSG_EXPECTS(idx < num_points());
    const level_t j = group_of(idx);
    const flat_index_t local = idx - group_offset_[j];
    const std::uint64_t rank = local >> j;
    // Same per-thread idiom as evaluate.cpp's PointBlock arena: no locking,
    // no member, nothing shared between threads. A fresh memo has d == 0,
    // which no grid has, so the first call always unranks.
    struct SubspaceMemo {
      dim_t d = 0;
      level_t j = 0;
      std::uint64_t rank = 0;
      LevelVector level;
    };
    thread_local SubspaceMemo memo;
    if (memo.d != d_ || memo.j != j || memo.rank != rank) {
      memo.level = unrank_subspace(d_, j, rank, binmat_);
      memo.d = d_;
      memo.j = j;
      memo.rank = rank;
    }
    return {memo.level,
            point_in_subspace(memo.level, local & ((flat_index_t{1} << j) - 1))};
  }

  /// Decode index1 (row-major position) into the index vector of subspace l.
  IndexVector point_in_subspace(const LevelVector& l,
                                flat_index_t index1) const {
    IndexVector i(d_);
    for (dim_t t = d_; t-- > 0;) {
      const flat_index_t mask = (flat_index_t{1} << l[t]) - 1;
      i[t] = 2 * (index1 & mask) + 1;
      index1 >>= l[t];
    }
    CSG_ASSERT(index1 == 0);
    return i;
  }

  /// Level group (|l|_1) of the point stored at flat position idx, found by
  /// binary search over the n+1 group offsets.
  level_t group_of(flat_index_t idx) const {
    CSG_EXPECTS(idx < num_points());
    level_t lo = 0, hi = n_ - 1;
    while (lo < hi) {
      const level_t mid = (lo + hi + 1) / 2;
      if (group_offset_[mid] <= idx)
        lo = mid;
      else
        hi = mid - 1;
    }
    return lo;
  }

  /// The flattened Alg. 3/5 subspace enumeration that every evaluation
  /// entry point walks (evaluation_plan.hpp). Built on the first call and
  /// shared by every copy of this grid; thread-safe, and after the first
  /// call it takes no lock.
  const EvaluationPlan& plan() const;

  friend bool operator==(const RegularSparseGrid& a,
                         const RegularSparseGrid& b) {
    return a.d_ == b.d_ && a.n_ == b.n_;
  }

 private:
  friend class EvaluationPlan;  // shared(): hands out the slot's plan

  // The plan depends only on (d, n), so copies of a grid share one slot.
  // shared_ptr<const EvaluationPlan> may be destroyed where the plan's type
  // is incomplete, which keeps evaluation_plan.hpp out of this header.
  struct PlanSlot {
    std::once_flag built;
    std::shared_ptr<const EvaluationPlan> plan;
  };

  dim_t d_;
  level_t n_;
  BinomialTable binmat_;
  std::vector<flat_index_t> group_offset_;  // size n+1; [n] == num_points()
  std::shared_ptr<PlanSlot> plan_;
};

/// Convenience: N(d, n) without building a grid (used by size planning and
/// the memory benchmarks); aborts where grid_points is empty.
inline flat_index_t regular_grid_num_points(dim_t d, level_t n) {
  const auto points = grid_points(d, n);
  CSG_EXPECTS(points && "grid too large for 64-bit flat indices");
  return *points;
}

}  // namespace csg
