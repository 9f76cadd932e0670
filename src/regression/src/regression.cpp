#include "csg/regression/regression.hpp"

#include <cmath>

#include "csg/core/evaluate.hpp"

namespace csg::regression {

namespace {

double dot(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  double acc = 0;
  for (std::size_t k = 0; k < a.size(); ++k) acc += a[k] * b[k];
  return acc;
}

}  // namespace

std::vector<real_t> apply_design(const CompactStorage& storage,
                                 std::span<const CoordVector> points) {
  return evaluate_many_blocked(storage, points);
}

void apply_design_transposed(const RegularSparseGrid& grid,
                             std::span<const CoordVector> points,
                             std::span<const real_t> residuals,
                             CompactStorage& out) {
  CSG_EXPECTS(points.size() == residuals.size());
  CSG_EXPECTS(out.grid() == grid);
  scatter_blocked_into(*EvaluationPlan::shared(grid), points, residuals,
                       out.values());
}

CompactStorage fit(dim_t d, level_t n, std::span<const CoordVector> points,
                   std::span<const real_t> values, const FitOptions& options,
                   FitReport* report) {
  CSG_EXPECTS(points.size() == values.size());
  CSG_EXPECTS(!points.empty());
  CSG_EXPECTS(options.lambda >= 0);
  for (const real_t y : values) CSG_EXPECTS(std::isfinite(y));
  CompactStorage alpha(d, n);
  const RegularSparseGrid& grid = alpha.grid();
  const auto num_coeffs = static_cast<std::size_t>(grid.num_points());
  const double inv_m = 1.0 / static_cast<double>(points.size());

  // A v = (B^T B / M + lambda I) v, matrix-free.
  auto apply_normal = [&](const CompactStorage& v) {
    const std::vector<real_t> bv = apply_design(v, points);
    CompactStorage out(d, n);
    apply_design_transposed(grid, points, bv, out);
    for (std::size_t k = 0; k < num_coeffs; ++k)
      out[k] = out[k] * inv_m + options.lambda * v[static_cast<flat_index_t>(k)];
    return out;
  };

  // b = B^T y / M.
  CompactStorage b(d, n);
  apply_design_transposed(grid, points, values, b);
  for (std::size_t k = 0; k < num_coeffs; ++k) b[k] *= inv_m;

  // Conjugate gradients from alpha = 0.
  std::vector<real_t> r(b.values());
  std::vector<real_t> p(r);
  double rr = dot(r, r);
  const double b_norm = std::sqrt(rr);
  int iter = 0;
  if (b_norm > 0) {
    for (; iter < options.max_iterations; ++iter) {
      if (std::sqrt(rr) / b_norm < options.tolerance) break;
      CompactStorage pvec(d, n);
      std::copy(p.begin(), p.end(), pvec.values().begin());
      const CompactStorage ap = apply_normal(pvec);
      const double p_ap = dot(p, ap.values());
      CSG_ASSERT(p_ap > 0 && "normal operator lost positive definiteness");
      const double step = rr / p_ap;
      for (std::size_t k = 0; k < num_coeffs; ++k) {
        alpha[static_cast<flat_index_t>(k)] += static_cast<real_t>(step * p[k]);
        r[k] -= static_cast<real_t>(step) * ap[static_cast<flat_index_t>(k)];
      }
      const double rr_next = dot(r, r);
      const double beta = rr_next / rr;
      rr = rr_next;
      for (std::size_t k = 0; k < num_coeffs; ++k)
        p[k] = r[k] + static_cast<real_t>(beta) * p[k];
    }
  }

  if (report != nullptr) {
    report->iterations = iter;
    report->relative_residual = b_norm > 0 ? std::sqrt(rr) / b_norm : 0;
    report->converged = b_norm == 0 || report->relative_residual <
                                           options.tolerance;
    report->training_mse = mean_squared_error(alpha, points, values);
  }
  return alpha;
}

double mean_squared_error(const CompactStorage& storage,
                          std::span<const CoordVector> points,
                          std::span<const real_t> values) {
  CSG_EXPECTS(points.size() == values.size());
  const std::vector<real_t> predicted = apply_design(storage, points);
  double acc = 0;
  for (std::size_t m = 0; m < points.size(); ++m) {
    const double e = predicted[m] - values[m];
    acc += e * e;
  }
  return acc / static_cast<double>(points.size());
}

}  // namespace csg::regression
