// Restriction of a sparse grid function to an axis-aligned plane.
//
// The visualization front-end of the paper's Fig. 1 pipeline browses
// 1d/2d/3d slices of a d-dimensional compressed field. Evaluating the full
// d-dimensional interpolant per pixel costs O(#subspaces(d) * d) per
// sample; but the restriction of fs to an axis-aligned plane IS ITSELF a
// regular sparse grid function over the kept dimensions, of the same
// level:
//
//   fs(x_kept, a) = sum_{l,i} alpha_{l,i} phi_kept(x_kept) *
//                   prod_{t dropped} phi_{l_t,i_t}(a_t)
//
// Grouping by the kept components gives 2d (say) hierarchical coefficients
// beta = sum over dropped components of alpha * (anchor weights). Per
// source subspace exactly one hat per dropped dimension holds the anchor,
// so the restriction reads the anchor's 1-D basis from one table pass of
// the SoA kernel (evaluate.hpp) and adds only that supported slab: one
// source point per kept index, never the whole grid. After that every
// frame sample costs only the 2d evaluation. This turns "decompress a
// 64x64 slice" from 4096 full evaluations into one restriction plus 4096
// cheap 2d evaluations.
#pragma once

#include "csg/core/compact_storage.hpp"

namespace csg {

/// Restrict `storage` to the plane where every dimension NOT in
/// `kept_dims` is pinned to the matching component of `anchor`.
///
/// * kept_dims: strictly increasing dimension indices to keep
///   (1 <= size < d);
/// * anchor: one coordinate per DROPPED dimension, in the order the
///   dropped dimensions appear.
///
/// The result is a CompactStorage over (kept_dims.size(), same level)
/// whose interpolant equals fs on the plane exactly (up to round-off).
/// Each output coefficient sums its terms in source subspace order, bit
/// for bit like the point-by-point walk testing::restrict_to_plane_walk.
CompactStorage restrict_to_plane(const CompactStorage& storage,
                                 const DimVector<dim_t>& kept_dims,
                                 const CoordVector& anchor);

/// Convenience: embed a kept-dims coordinate back into the full domain
/// (inverse bookkeeping of restrict_to_plane, for tests and callers).
CoordVector embed_in_plane(dim_t full_dim, const DimVector<dim_t>& kept_dims,
                           const CoordVector& anchor, const CoordVector& x);

}  // namespace csg
