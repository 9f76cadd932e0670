// Reference hierarchizations on CompactStorage: the paper's Alg. 6 in its
// per-level-group order, kept as oracles for the production pole sweep
// (csg/core/hierarchize.hpp).
//
// Within one dimension the level groups are processed in descending |l|_1
// order, so that a point's update reads its dimension-t parents while they
// still hold their previous (pre-update-in-t) values — exactly the
// dependency order the paper enforces with per-group barriers on the GPU
// (and csg::gpusim reproduces). Every point does two gp2idx parent lookups
// per dimension, which is what makes this order slow on the CPU; it is
// bit-identical to the pole sweep by construction, which the oracles in
// oracles.hpp check at zero ULPs.
#pragma once

#include "csg/core/compact_storage.hpp"

namespace csg::testing {

/// Flat position of the dimension-t left/right hierarchical parent of the
/// point (l, i), or kBoundaryParent if the parent is the domain boundary
/// (contribution 0 for the zero-boundary grids of the paper).
inline constexpr flat_index_t kBoundaryParent = ~flat_index_t{0};

flat_index_t parent_flat_index(const RegularSparseGrid& grid, LevelVector l,
                               IndexVector i, dim_t t, bool right);

/// Alg. 6, subspace-wise: per dimension (ascending), level groups
/// descending, subspaces enumerated with next_level, points via an index
/// odometer. O(N * d^2) like the paper's version, but without the per-point
/// idx2gp decode.
void hierarchize_groups(CompactStorage& storage);

/// Inverse of hierarchize_groups: dimensions descending, level groups
/// ascending, so a point's parents are already restored to nodal-in-t
/// values when the point itself is updated.
void dehierarchize_groups(CompactStorage& storage);

/// Literal transcription of Alg. 6: per dimension, one flat loop
/// j = N-1 ... 0 with a full idx2gp decode per point.
void hierarchize_literal(CompactStorage& storage);

}  // namespace csg::testing
