// Reference evaluations on CompactStorage: the paper's Alg. 7 in scalar
// form, kept as oracles for the production SoA block kernel
// (csg/core/evaluate.hpp), and the point-by-point plane restriction kept
// as the oracle of restrict_to_plane (csg/core/restriction.hpp).
//
// Both references compute one subspace's term per point with scalar
// arithmetic and an early exit on a zero hat product — the operation
// sequence the kernel's vector lanes reproduce — so for finite
// coefficients they are bit-identical to every production entry point,
// which the oracles in oracles.hpp check at zero ULPs. The kernel's
// `// scalar fallback:` tags (the csg-lint simd-scalar-parity rule) name
// the per-subspace term defined in reference_evaluate.cpp.
#pragma once

#include <span>
#include <vector>

#include "csg/core/boundary_grid.hpp"
#include "csg/core/compact_storage.hpp"

namespace csg::testing {

/// Alg. 7 as written: one point, every level vector re-derived with
/// first_level/advance_level, no EvaluationPlan. The reference every
/// evaluation path is pinned against.
real_t evaluate_walk(const RegularSparseGrid& grid,
                     std::span<const real_t> coeffs, const CoordVector& x);

/// The scalar form of Sec. 4.3 blocking over the EvaluationPlan: per block
/// of `block_size` points, subspaces outer and points inner, one scalar
/// subspace term per (subspace, point). Block size 1 is the per-point plan
/// scan.
std::vector<real_t> evaluate_blocked_scalar(
    const CompactStorage& coeffs, std::span<const CoordVector> points,
    std::size_t block_size);

/// The boundary grid's interpolant at x (Sec. 4.4), one face at a time in
/// storage order: the product of the fixed dimensions' level-0 hats times
/// evaluate_walk on the face, skipped where that weight is 0. Each face is
/// decoded from its first point with idx2bp.
real_t evaluate_boundary_walk(const BoundaryStorage& storage,
                              const CoordVector& x);

/// restrict_to_plane (restriction.hpp) point by point: every point of the
/// grid in flat order, its dropped-dimension weight at the anchor as a
/// product of hat_basis_1d values, added into its kept point where
/// non-zero. Each output coefficient sums its terms in source subspace
/// order, as the production slab walk does.
CompactStorage restrict_to_plane_walk(const CompactStorage& storage,
                                      const DimVector<dim_t>& kept_dims,
                                      const CoordVector& anchor);

}  // namespace csg::testing
