// Calculus on sparse grid functions: gradients and quadrature.
//
// Both follow directly from the tensor hat basis and are core needs of the
// paper's application domains — visualization requires surface normals
// (gradients) for shading the decompressed slices, and the quadrature /
// data mining applications cited in Sec. 1 integrate the interpolant.
//
//  * Gradient: fs is piecewise d-linear, so within a cell each partial
//    derivative is obtained by differentiating the 1d hat factor of the
//    active dimension (+-1/h) and evaluating the others as usual.
//  * Integral: each 1d hat integrates to its mesh width h = 2^{-(l+1)},
//    so the tensor basis of subspace l integrates to 2^{-(|l|_1 + d)} and
//    the whole integral is a per-group weighted sum of coefficient sums —
//    one O(N) sequential sweep.
#pragma once

#include <span>

#include "csg/core/compact_storage.hpp"

namespace csg {

/// Value and gradient of the sparse grid function at x: the derivative
/// within the cell containing x. On a grid line x_t * 2^l = k >= 1, the
/// level-l term takes the slope and coefficient of cell k - 1 (the LEFT
/// derivative); at x_t = 0 the right one. A scalar walk on purpose: its
/// callers are single-point, where a one-point kernel block costs more.
struct ValueAndGradient {
  real_t value;
  CoordVector gradient;
};

ValueAndGradient evaluate_with_gradient(const CompactStorage& storage,
                                        const CoordVector& x);

/// Integral of the sparse grid function over [0,1]^d: O(N) exact
/// accumulation of coefficient sums weighted by 2^{-(|l|_1 + d)}.
real_t integrate(const CompactStorage& storage);

/// L2 norm of fs computed from the hierarchical coefficients via pairwise
/// basis products is expensive; the commonly used surrogate is the
/// discrete l2 norm of the surpluses per level, which also drives
/// adaptivity criteria. max_surplus_per_group returns max |alpha| within
/// each level group (size n) — a cheap smoothness fingerprint of the data.
std::vector<real_t> max_surplus_per_group(const CompactStorage& storage);

}  // namespace csg
