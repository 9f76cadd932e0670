// In-place hierarchization / dehierarchization on CompactStorage (paper
// Alg. 6 and its inverse), computed as a pole sweep.
//
// Hierarchization converts nodal values (samples of f at grid points) into
// hierarchical coefficients, one dimension at a time. Within dimension t the
// grid decomposes into 1d "poles": all points sharing every coordinate except
// dimension t. A pole family is rooted at a subspace l with l[t] = 0; within
// the family l' = l except l'[t] = lev, the flat position factors as
//   offs[lev] + A * 2^lev * S + c * S + B
// with A/B the row-major prefix/suffix of the other dimensions and
// S = prod_{s>t} 2^{l_s}, so the scalar Alg. 1 recursion runs on direct
// index arithmetic — no gp2idx, no idx2gp, no parent lookups. Poles are
// disjoint, so the only ordering constraint is between dimensions.
//
// The results are bit-identical to the paper's per-level-group traversal
// (descending |l|_1 groups reading pre-update parents forward, ascending
// groups reading restored parents inverse): every point performs the same
// `cur -/+ (left + right) / 2` on the same operand values. That traversal
// survives as an oracle in csg::testing (reference_hierarchize.hpp) and as
// the simulated-GPU kernels in csg::gpusim.
#pragma once

#include <cstdint>
#include <span>

#include "csg/core/compact_storage.hpp"

namespace csg {

/// In-place hierarchization: nodal values to hierarchical coefficients,
/// dimensions ascending. O(N d), no scratch proportional to N.
void hierarchize(CompactStorage& storage);

/// In-place inverse transform: hierarchical coefficients back to nodal
/// values, dimensions descending (the exact mirror of hierarchize()).
void dehierarchize(CompactStorage& storage);

namespace detail {

/// The k-th dimension a sweep visits: ascending forward, descending inverse.
inline dim_t sweep_dimension(dim_t d, dim_t k, bool inverse) {
  return inverse ? d - 1 - k : k;
}

/// Number of pole families per dimension: the subspaces with l[t] = 0,
/// i.e. the subspaces of the (d-1)-dimensional grid of the same level.
std::uint64_t pole_root_count(const RegularSparseGrid& grid);

/// The dimension-t pole roots by rank r < pole_root_count(grid): root r is
/// the r-th level vector of the (d-1)-dimensional grid of the same level,
/// with l[t] = 0 inserted. Ranked access lets threads split the roots
/// without storing them; the rank after the previous one costs one Alg. 4
/// `next`, any other rank an O(d + n) unranking.
class PoleRoots {
 public:
  PoleRoots(const RegularSparseGrid& grid, dim_t t);
  const LevelVector& operator[](std::uint64_t r);

 private:
  const RegularSparseGrid* grid_;
  dim_t t_;
  std::uint64_t rank_;  // rank of root_; pole_root_count(grid) = none yet
  level_t group_ = 0;   // |root_|_1
  LevelVector rest_;    // root_ without its t component
  LevelVector root_;
};

/// Transform every dimension-t pole of the family rooted at `root`
/// (forward or inverse). `offs` is scratch of grid.level() entries. Families
/// are disjoint, so callers may run different roots concurrently; the
/// OpenMP form (csg::parallel::omp_hierarchize) does exactly that.
void transform_pole_family(CompactStorage& storage, dim_t t,
                           const LevelVector& root, bool inverse,
                           std::span<flat_index_t> offs);

}  // namespace detail

}  // namespace csg
