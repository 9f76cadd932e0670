// EvaluationPlan: a one-time flattening of the level-group enumeration into
// contiguous arrays, so the Alg. 7 subspace walk becomes a linear scan.
//
// evaluate() visits every subspace of the grid once per query point. The
// iterator walk (first_level/advance_level) re-derives each level vector on
// every visit; amortized over a batch of points that is pure overhead, and
// its branchy data-dependent scan defeats prefetching. The plan precomputes
//  * packed_levels(): all level vectors back to back (subspace s occupies
//    entries [s*d, (s+1)*d)), in the exact Alg. 3 enumeration order, and
//  * offsets(): the flat coefficient base (index2 + index3 of Alg. 5) of
//    every subspace,
// turning the inner loop of Alg. 7 into "for s: read d levels, read one
// base, accumulate" over two contiguous arrays. The plan depends only on
// (d, n), costs O(|subspaces| * d) memory — tiny next to the coefficient
// array — and is shared read-only by any number of threads. Each
// RegularSparseGrid owns one, built on first use (RegularSparseGrid::plan()),
// so plans live exactly as long as the grids they serve.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "csg/core/regular_grid.hpp"

namespace csg {

class EvaluationPlan {
 public:
  /// Flatten the subspace enumeration of `grid`. O(|subspaces| * d).
  explicit EvaluationPlan(const RegularSparseGrid& grid);

  dim_t dim() const { return d_; }
  level_t level() const { return n_; }

  /// Total coefficients the planned grid addresses (== grid.num_points()).
  flat_index_t num_points() const { return num_points_; }

  /// Number of subspaces across all level groups (= C(d+n-1, d)).
  std::size_t subspace_count() const { return offsets_.size(); }

  /// All level vectors, packed row-major: subspace s is
  /// packed_levels()[s*dim() .. s*dim()+dim()-1], in enumeration order.
  const level_t* packed_levels() const { return levels_.data(); }

  /// Per-subspace flat base offset of the first coefficient
  /// (index2 + index3 of Alg. 5), aligned with packed_levels().
  const flat_index_t* offsets() const { return offsets_.data(); }

  /// Unpacked level vector of subspace s (convenience for tests/tools).
  LevelVector level_of(std::size_t s) const {
    CSG_EXPECTS(s < subspace_count());
    const level_t* base = levels_.data() + s * d_;
    return LevelVector(base, base + d_);
  }

  /// Bytes held by the two plan arrays.
  std::size_t memory_bytes() const {
    return levels_.size() * sizeof(level_t) +
           offsets_.size() * sizeof(flat_index_t);
  }

  /// The plan of `grid`, which owns it (RegularSparseGrid::plan()). Kept
  /// only as a forwarding shim for perfbench until its next change; call
  /// grid.plan() instead (csg-lint one-plan-owner).
  static std::shared_ptr<const EvaluationPlan> shared(
      const RegularSparseGrid& grid);

  /// No-op, kept for perfbench next to shared(): every plan belongs to its
  /// grid, so there is no process-wide plan left to drop.
  static void shared_cache_clear();

 private:
  dim_t d_;
  level_t n_;
  flat_index_t num_points_;
  std::vector<level_t> levels_;
  std::vector<flat_index_t> offsets_;
};

}  // namespace csg
