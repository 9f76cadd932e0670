#include "csg/regression/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <utility>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/testing/compare.hpp"
#include "csg/testing/generators.hpp"
#include "csg/testing/property.hpp"
#include "csg/testing/reference_evaluate.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg::regression {
namespace {

TEST(Regression, DesignOperatorMatchesEvaluate) {
  CompactStorage s(3, 4);
  s.sample(workloads::gaussian_bump(3).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(3, 40, 3);
  const auto via_design = apply_design(s, pts);
  for (std::size_t m = 0; m < pts.size(); ++m)
    EXPECT_EQ(via_design[m], evaluate(s, pts[m]));
}

TEST(Regression, TransposedOperatorIsAdjoint) {
  // <B a, r> == <a, B^T r> for random a and r — the defining property.
  const auto res = csg::testing::run_property(
      {"design_transpose_adjoint", 6}, [](std::mt19937_64& rng) -> std::string {
        const dim_t d = 3;
        const level_t n = 4;
        RegularSparseGrid grid(d, n);
        std::uniform_real_distribution<real_t> dist(-1, 1);
        CompactStorage a(d, n);
        for (flat_index_t j = 0; j < a.size(); ++j) a[j] = dist(rng);
        const auto pts = workloads::uniform_points(d, 60, 8);
        std::vector<real_t> r(pts.size());
        for (real_t& v : r) v = dist(rng);

        const auto ba = apply_design(a, pts);
        double lhs = 0;
        for (std::size_t m = 0; m < pts.size(); ++m) lhs += ba[m] * r[m];

        CompactStorage btr(d, n);
        apply_design_transposed(grid, pts, r, btr);
        double rhs = 0;
        for (flat_index_t j = 0; j < a.size(); ++j) rhs += a[j] * btr[j];

        const double tol = 1e-10 * (std::abs(lhs) + 1);
        if (std::abs(lhs - rhs) > tol)
          return "<Ba,r>=" + std::to_string(lhs) + " but <a,B^T r>=" +
                 std::to_string(rhs) + " (tol " + std::to_string(tol) + ")";
        return "";
      });
  EXPECT_TRUE(res.passed) << res.detail;
}

// Sample points for the transpose oracle: a mix of generic coordinates,
// dyadic ones on grid lines of some level <= n, and the ends 0 and 1.
std::vector<CoordVector> mixed_points(std::mt19937_64& rng, dim_t d,
                                      level_t n, std::size_t count) {
  std::uniform_real_distribution<real_t> generic(0, 1);
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_int_distribution<int> level(1, static_cast<int>(n));
  std::vector<CoordVector> pts(count, CoordVector(d));
  for (CoordVector& x : pts) {
    for (dim_t t = 0; t < d; ++t) {
      switch (kind(rng)) {
        case 3: {
          const int m = level(rng);
          std::uniform_int_distribution<int> k(1, (1 << m) - 1);
          x[t] = std::ldexp(static_cast<real_t>(k(rng)), -m);
          break;
        }
        case 4: x[t] = 0; break;
        case 5: x[t] = 1; break;
        default: x[t] = generic(rng);
      }
    }
  }
  return pts;
}

TEST(Regression, TransposedOperatorMatchesTheScalarWalk) {
  // testing::evaluate_walk(grid, e_j, x) is exactly phi_j(x), so
  // sum_m r_m * walk(e_j, x_m), accumulated in m order, is B^T r term by
  // term. The kernel's scatter must equal it at 0 ULPs (+0 == -0), for
  // partial blocks (1, 7 points) and several 64-point blocks (130).
  std::mt19937_64 rng(testing::mix_seed(0x7ea5));
  std::uniform_real_distribution<real_t> dist(-1, 1);
  const std::pair<dim_t, level_t> shapes[] = {{1, 6}, {3, 5}, {6, 4}};
  for (const auto& [d, n] : shapes) {
    const RegularSparseGrid grid(d, n);
    for (const std::size_t count : {1u, 7u, 130u}) {
      const auto pts = mixed_points(rng, d, n, count);
      std::vector<real_t> random_r(count), zero_r(count, 0);
      for (real_t& v : random_r) {
        v = dist(rng);
        if (v < -0.5) v = 0;  // about a quarter are exact zeros
      }
      for (const auto* r : {&random_r, &zero_r}) {
        CompactStorage got(d, n);
        apply_design_transposed(grid, pts, *r, got);
        std::vector<real_t> unit(grid.num_points(), 0);
        for (flat_index_t j = 0; j < grid.num_points(); ++j) {
          unit[j] = 1;
          real_t want = 0;
          for (std::size_t m = 0; m < count; ++m)
            want += (*r)[m] * testing::evaluate_walk(grid, unit, pts[m]);
          unit[j] = 0;
          ASSERT_EQ(testing::ulp_distance(got[j], want), 0u)
              << "d=" << d << " n=" << n << " points=" << count
              << (r == &zero_r ? " zero residuals" : "") << " j=" << j
              << ": " << testing::describe_mismatch(got[j], want);
        }
      }
    }
  }
}

TEST(Regression, InterpolatesWhenDataComesFromTheGridItself) {
  // If y = fs(x) for a sparse grid function fs of the same shape and the
  // samples are plentiful, the fit recovers fs (up to the regularization).
  const dim_t d = 2;
  const level_t n = 4;
  CompactStorage truth(d, n);
  truth.sample(workloads::gaussian_bump(d).f);
  hierarchize(truth);

  const auto pts = workloads::halton_points(d, 800);
  const auto vals = apply_design(truth, pts);
  FitOptions opt;
  opt.lambda = 1e-10;
  opt.max_iterations = 500;
  FitReport report;
  const CompactStorage fitted = fit(d, n, pts, vals, opt, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.training_mse, 1e-12);
  for (const CoordVector& x : workloads::uniform_points(d, 100, 77))
    EXPECT_NEAR(evaluate(fitted, x), evaluate(truth, x), 1e-4);
}

TEST(Regression, FitsNoisyDataBelowNoiseFloor) {
  // Each fit is expensive (1500 samples, level 5), so keep the iteration
  // count low; the property still resamples the noise every run.
  const auto res = csg::testing::run_property(
      {"noisy_fit_below_noise_floor", 2},
      [](std::mt19937_64& rng) -> std::string {
        const dim_t d = 2;
        const auto f = workloads::parabola_product(d);
        std::normal_distribution<real_t> noise(0, 0.02);
        const auto pts = workloads::halton_points(d, 1500);
        std::vector<real_t> vals(pts.size());
        for (std::size_t m = 0; m < pts.size(); ++m)
          vals[m] = f(pts[m]) + noise(rng);

        FitOptions opt;
        opt.lambda = 1e-5;
        FitReport report;
        const CompactStorage fitted = fit(d, 5, pts, vals, opt, &report);
        // Training error ~ noise variance (4e-4), not much lower (no gross
        // overfit) and not much higher (the model fits the signal).
        if (report.training_mse >= 3 * 0.02 * 0.02)
          return "training_mse " + std::to_string(report.training_mse) +
                 " above 3x noise variance";
        // True-function error well below the noise level: the fit denoises.
        const auto test_pts = workloads::uniform_points(d, 400, 31);
        double err = 0;
        for (const CoordVector& x : test_pts)
          err = std::max(err, std::abs(evaluate(fitted, x) - f(x)));
        if (err >= 0.05)
          return "max true-function error " + std::to_string(err) +
                 " not below 0.05";
        return "";
      });
  EXPECT_TRUE(res.passed) << res.detail;
}

TEST(Regression, StrongerRegularizationShrinksCoefficients) {
  const dim_t d = 2;
  const auto f = workloads::oscillatory(d);
  const auto pts = workloads::halton_points(d, 600);
  std::vector<real_t> vals(pts.size());
  for (std::size_t m = 0; m < pts.size(); ++m) vals[m] = f(pts[m]);

  auto norm_for = [&](double lambda) {
    FitOptions opt;
    opt.lambda = lambda;
    const CompactStorage fitted = fit(d, 5, pts, vals, opt);
    double norm = 0;
    for (flat_index_t j = 0; j < fitted.size(); ++j)
      norm += fitted[j] * fitted[j];
    return norm;
  };
  EXPECT_GT(norm_for(1e-8), norm_for(1e-2));
  EXPECT_GT(norm_for(1e-2), norm_for(10.0));
}

TEST(Regression, HandlesMoreCoefficientsThanSamples) {
  // Under-determined case: the regularized normal equations stay SPD and
  // CG converges; the surrogate reproduces the few samples well.
  const dim_t d = 3;
  const level_t n = 4;  // 177 coefficients
  const auto pts = workloads::halton_points(d, 40);
  const auto f = workloads::gaussian_bump(d);
  std::vector<real_t> vals(pts.size());
  for (std::size_t m = 0; m < pts.size(); ++m) vals[m] = f(pts[m]);
  FitOptions opt;
  opt.lambda = 1e-6;
  FitReport report;
  const CompactStorage fitted = fit(d, n, pts, vals, opt, &report);
  EXPECT_LT(report.training_mse, 1e-6);
}

TEST(Regression, ZeroTargetsGiveZeroCoefficients) {
  const auto pts = workloads::uniform_points(2, 50, 2);
  const std::vector<real_t> vals(pts.size(), 0.0);
  FitReport report;
  const CompactStorage fitted = fit(2, 4, pts, vals, {}, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 0);
  for (flat_index_t j = 0; j < fitted.size(); ++j) EXPECT_EQ(fitted[j], 0.0);
}

TEST(Regression, MeanSquaredErrorDefinition) {
  CompactStorage s(1, 2);  // zero function
  const std::vector<CoordVector> pts = {CoordVector{0.25}, CoordVector{0.75}};
  const std::vector<real_t> vals = {1.0, -2.0};
  EXPECT_DOUBLE_EQ(mean_squared_error(s, pts, vals), (1.0 + 4.0) / 2);
}

TEST(RegressionDeath, MismatchedSampleArraysRejected) {
  const auto pts = workloads::uniform_points(2, 10, 1);
  const std::vector<real_t> vals(9, 0.0);
  EXPECT_DEATH((void)fit(2, 3, pts, vals), "precondition");
}

TEST(RegressionDeath, NonFiniteValuesRejected) {
  const auto pts = workloads::uniform_points(2, 10, 1);
  for (const real_t bad : {std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::infinity(),
                           -std::numeric_limits<real_t>::infinity()}) {
    std::vector<real_t> vals(pts.size(), 0.5);
    vals[3] = bad;
    EXPECT_DEATH((void)fit(2, 3, pts, vals), "precondition") << bad;
  }
}

TEST(RegressionDeath, TransposeRejectsPointsOutsideTheDomain) {
  // The scatter writes where the point's cells say; a point outside
  // [0,1]^d must stop before it can write out of bounds.
  const RegularSparseGrid grid(2, 3);
  CompactStorage out(2, 3);
  const std::vector<real_t> r{1.0};
  for (const real_t bad :
       {-0.25, 1.5, std::numeric_limits<real_t>::quiet_NaN()}) {
    const std::vector<CoordVector> pts{CoordVector{0.5, bad}};
    EXPECT_DEATH(apply_design_transposed(grid, pts, r, out), "precondition")
        << bad;
  }
}

}  // namespace
}  // namespace csg::regression
