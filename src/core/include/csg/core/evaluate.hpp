// Iterative evaluation (interpolation) of a sparse grid function at
// arbitrary points of [0,1]^d — paper Alg. 7 with the point blocking of
// Sec. 4.3 — and its transpose.
//
// The sum over all basis functions collapses to one term per subspace: in a
// regular subspace exactly one hat has the query point in its support, and
// the coefficient offset advances by 2^j per subspace. The subspaces are
// visited through an EvaluationPlan — a one-time flattening of the level
// enumeration into contiguous arrays. One SoA block kernel finds that hat
// per point and subspace; B * alpha gathers with it (every evaluation entry
// point: one point, a sequential batch, the OpenMP batch, the serving
// workers — all through evaluate_blocked_into) and B^T r scatters with it
// (scatter_blocked_into). The scalar walk and blocked loop the kernel is
// pinned against are oracles in csg::testing (reference_evaluate.hpp).
//
// Coordinates must lie in [0,1] (PointBlock::assign rejects the rest). The
// bit-identity guarantee covers finite values only: where a point lies on a
// grid line of a subspace, the kernel still multiplies the selected
// coefficient by the exact 0 hat product, so a +-inf or NaN coefficient
// there yields NaN (0 * inf) where the scalar walk skips the term.
// Rejecting non-finite data is the caller's job.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "csg/core/compact_storage.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "csg/core/point_block.hpp"

namespace csg {

/// Evaluate a coefficient array laid out by `grid` at one point x in
/// [0,1]^d. The span form exists so that sub-grid views (e.g. the boundary
/// decomposition of Sec. 4.4) can be evaluated without copying. Fetches the
/// shared plan for (d, n); callers holding a plan use the overload below.
real_t evaluate_span(const RegularSparseGrid& grid,
                     std::span<const real_t> coeffs, const CoordVector& x);

/// Plan-held form: one point evaluated as a one-lane block of the SoA
/// kernel, in the calling thread's PointBlock arena.
real_t evaluate_span(const EvaluationPlan& plan,
                     std::span<const real_t> coeffs, const CoordVector& x);

/// Evaluate the sparse grid function at one point x in [0,1]^d.
real_t evaluate(const CompactStorage& storage, const CoordVector& x);

/// Cache-blocked evaluation (paper Sec. 4.3): the subspace loop is hoisted
/// outside a block of evaluation points, so one subspace's coefficients are
/// reused across the whole block while they are hot in cache.
std::vector<real_t> evaluate_many_blocked(const CompactStorage& storage,
                                          std::span<const CoordVector> points,
                                          std::size_t block_size = 64);

/// Plan-held variant of the blocked evaluation.
std::vector<real_t> evaluate_many_blocked(const EvaluationPlan& plan,
                                          std::span<const real_t> coeffs,
                                          std::span<const CoordVector> points,
                                          std::size_t block_size = 64);

/// Blocked accumulation into a caller-provided, zero-initialized output
/// range (out.size() == points.size()). This is the shared core of the
/// sequential and the OpenMP blocked paths: a parallel caller hands each
/// thread a disjoint (points, out) slice and needs no reduction or barrier.
/// Each block runs through the SoA kernel below: the calling thread's
/// thread-local PointBlock arena is transposed once per block and reused
/// across calls, single-point ones included.
void evaluate_blocked_into(const EvaluationPlan& plan,
                           std::span<const real_t> coeffs,
                           std::span<const CoordVector> points,
                           std::size_t block_size, std::span<real_t> out);

/// Transposed pass in blocks of 64 points: for each point m in order, add
/// weights[m] * phi_j(x_m) into out[j] for every hat j holding x_m. Each
/// out[j] sums its terms in point order, as a scalar loop over points does.
void scatter_blocked_into(const EvaluationPlan& plan,
                          std::span<const CoordVector> points,
                          std::span<const real_t> weights,
                          std::span<real_t> out);

/// SoA batch kernel (DESIGN.md §14): accumulate the interpolant for every
/// point of `block` into block.accum(). The inner loops run one subspace
/// against a full lane of points with `#pragma omp simd`; the boundary and
/// support tests of Alg. 7 are arithmetic selects, so the loop body is
/// branch-free and vectorizes. For finite coefficients the result is
/// bit-identical per point to the scalar walk testing::evaluate_walk; the
/// check_eval_soa_parity oracle pins ULP-0 equality through the comparator
/// (which also identifies +0 and -0).
void evaluate_block_soa(const EvaluationPlan& plan,
                        std::span<const real_t> coeffs, PointBlock& block);

/// Deterministic SoA kernel tallies (relaxed atomics): blocks and
/// kPointBlockLane-wide lanes fed through the kernel (gather or scatter),
/// and subspaces visited (summed over blocks). The benches gate on these.
struct SoaKernelStats {
  std::uint64_t blocks = 0;
  std::uint64_t lanes = 0;
  std::uint64_t subspaces_visited = 0;
};
SoaKernelStats soa_kernel_stats();
void reset_soa_kernel_stats();

}  // namespace csg
