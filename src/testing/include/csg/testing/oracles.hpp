// Storage-agnostic differential oracles.
//
// Each oracle runs one operation through every implementation the library
// has — the production pole sweep and its OpenMP form against the paper's
// group-order and literal Alg. 6 (reference_hierarchize.hpp), the SoA
// evaluation kernel against the scalar Alg. 7 (reference_evaluate.hpp), the
// recursive and key-value algorithms over the map/hash/prefix-tree
// baselines, the serializer — and checks that they all describe the same
// function. Comparison is ULP-aware (compare.hpp) with two budgets: the
// compact-structure family is bit-identical by construction (exact_ulps,
// default 0), while the recursive baselines re-associate the same sums and
// get a small relative budget plus an absolute floor for the near-zero
// coefficients that cancellation passes through.
//
// Oracles return a result instead of asserting, so the same code drives
// gtest properties (EXPECT_TRUE(r.ok) << r.detail), csgtool selfcheck, and
// any future fuzz driver.
#pragma once

#include <random>
#include <span>
#include <string>
#include <vector>

#include "csg/core/compact_storage.hpp"

namespace csg::testing {

struct OracleResult {
  bool ok = true;
  /// Individual value comparisons performed (coverage indicator).
  std::uint64_t comparisons = 0;
  /// First mismatch, empty when ok. Includes which implementations
  /// disagreed, at which point, and the two values with ULP distance.
  std::string detail;

  explicit operator bool() const { return ok; }
  /// Fold another oracle's outcome into this one (first failure wins).
  void merge(const OracleResult& other);
};

struct OracleOptions {
  /// Budget for the compact-structure family (pole sweep, group-order and
  /// literal Alg. 6, OpenMP): these share arithmetic and operand values,
  /// so 0 = bit-identical.
  std::uint64_t exact_ulps = 0;
  /// Budget for cross-family comparisons (recursive baselines).
  std::uint64_t cross_ulps = 1024;
  /// Absolute floor accompanying cross_ulps / round trips: coefficients
  /// that cancel to near zero carry absolute error from the large values
  /// they were computed from, where a pure ULP budget is meaningless.
  real_t abs_floor = 1e-9;
  /// Thread count for the OpenMP variants.
  int threads = 3;
  /// Run the map/hash/prefix-tree differential baselines (the slow part).
  bool include_baselines = true;
};

/// Every hierarchization implementation agrees with the group-order
/// oracle on `nodal` (values are interpreted as nodal samples; the input is
/// not modified).
OracleResult check_hierarchize_parity(const CompactStorage& nodal,
                                      const OracleOptions& opts = {});

/// Sequential and OpenMP dehierarchize agree with the group-order inverse
/// oracle on `coeffs` (interpreted as hierarchical coefficients) within
/// exact_ulps — pins the inverse's dimension order, which a round trip
/// within cross_ulps cannot see.
OracleResult check_dehierarchize_parity(const CompactStorage& coeffs,
                                        const OracleOptions& opts = {});

/// hierarchize/dehierarchize pairings (including mixed traversals) return
/// the original array.
OracleResult check_round_trip(const CompactStorage& values,
                              const OracleOptions& opts = {});

/// Every evaluation path agrees with the scalar walk (evaluate_walk,
/// reference_evaluate.hpp) at `points`: single-point evaluate, blocked at
/// several block sizes and OpenMP at 0 ULPs, recursive/key-value over the
/// baselines within cross_ulps (values are interpreted as hierarchical
/// coefficients).
OracleResult check_evaluate_parity(const CompactStorage& coeffs,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts = {});

/// Differential battery for the SoA batch kernel (DESIGN.md §14): the
/// production blocked path and the scalar blocked oracle
/// (evaluate_blocked_scalar) are each pinned against the scalar walk with
/// the exact_ulps comparator, across a block-size sweep that includes 1,
/// the lane width +-1, and oversized blocks, plus the OpenMP form and a
/// direct evaluate_block_soa call on a hand-built PointBlock.
OracleResult check_eval_soa_parity(const CompactStorage& coeffs,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts = {});

/// restrict_to_plane agrees with the point-by-point walk
/// (restrict_to_plane_walk, reference_evaluate.hpp) on every output
/// coefficient within exact_ulps (values are interpreted as hierarchical
/// coefficients; `kept` and `anchor` as restrict_to_plane takes them).
OracleResult check_restriction_parity(const CompactStorage& coeffs,
                                      const DimVector<dim_t>& kept,
                                      const CoordVector& anchor,
                                      const OracleOptions& opts = {});

/// save/load round trip is bit-exact and shape-preserving.
OracleResult check_serialize_round_trip(const CompactStorage& values);

/// The combination technique reproduces the direct interpolant: sampling
/// the component grids with the compact interpolant of `nodal` (every
/// component point lies on the sparse grid, so this equals sampling the
/// original function), the combined evaluation must agree at `points` and
/// to_compact must return the reference coefficients. Cross-validates the
/// component enumeration and weights against gp2idx/hierarchize/Alg. 7
/// through an independent representation.
OracleResult check_combination_parity(const CompactStorage& nodal,
                                      std::span<const CoordVector> points,
                                      const OracleOptions& opts = {});

/// The spatially adaptive (hash-keyed) representation seeded with the same
/// regular point set computes the same surpluses at every grid point and
/// the same interpolant at `points` as the compact structure.
OracleResult check_adaptive_parity(const CompactStorage& nodal,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts = {});

/// The full battery on one grid function: forward and inverse parity,
/// round trip, evaluation differentials at a random point cloud,
/// serialization and, for d >= 2, a plane restriction at a random kept set
/// and an anchor partly on grid lines. `nodal` is interpreted as nodal samples. This is the
/// one-call oracle property tests use.
OracleResult check_all(const CompactStorage& nodal, std::mt19937_64& rng,
                       const OracleOptions& opts = {});

}  // namespace csg::testing
