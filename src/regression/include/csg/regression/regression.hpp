// Sparse grid regression — the data mining application of the paper's
// introduction ("sparse grids ... have meanwhile been employed to a whole
// range of different applications from fields such as ... data mining",
// refs [2][3]).
//
// Given M scattered samples (x_m, y_m), find hierarchical coefficients
// alpha minimizing
//
//   (1/M) sum_m ( fs(x_m) - y_m )^2  +  lambda * |alpha|^2
//
// i.e. the normal equations (B^T B / M + lambda I) alpha = B^T y / M with
// B_{m,j} = phi_j(x_m). Everything is MATRIX-FREE on the compact
// structure: B alpha is a batch evaluation (Alg. 7's subspace walk) and
// B^T r scatters residual-weighted basis values back into the coefficient
// array through the same SoA kernel — both O(M * #subspaces * d). The
// system is symmetric positive definite, solved by conjugate gradients.
//
// This is the use case where the compact structure shines beyond
// compression: the fit touches the coefficient array millions of times
// and pays no key overhead at all.
#pragma once

#include <span>
#include <vector>

#include "csg/core/compact_storage.hpp"

namespace csg::regression {

struct FitOptions {
  double lambda = 1e-6;     // Tikhonov regularization weight
  int max_iterations = 200;
  double tolerance = 1e-10; // on the relative residual norm
};

struct FitReport {
  int iterations = 0;
  double relative_residual = 0;  // ||r|| / ||b|| at exit
  double training_mse = 0;       // (1/M) sum (fs(x_m) - y_m)^2
  bool converged = false;
};

/// Apply the design operator: out_m = fs(x_m) for every sample, using the
/// coefficients currently in `storage`.
std::vector<real_t> apply_design(const CompactStorage& storage,
                                 std::span<const CoordVector> points);

/// Apply the transposed design operator: for every sample, in order, add
/// r_m * phi_j(x_m) into coefficient j of `out`.
void apply_design_transposed(const RegularSparseGrid& grid,
                             std::span<const CoordVector> points,
                             std::span<const real_t> residuals,
                             CompactStorage& out);

/// Least-squares fit of a sparse grid of shape (d, n) to the samples
/// (values must be finite).
/// Returns the fitted surrogate; `report` (optional) receives solver
/// diagnostics.
CompactStorage fit(dim_t d, level_t n, std::span<const CoordVector> points,
                   std::span<const real_t> values,
                   const FitOptions& options = {},
                   FitReport* report = nullptr);

/// Mean squared error of a fitted surrogate on a (test) set.
double mean_squared_error(const CompactStorage& storage,
                          std::span<const CoordVector> points,
                          std::span<const real_t> values);

}  // namespace csg::regression
