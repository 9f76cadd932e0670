#include "csg/core/calculus.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/testing/property.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg {
namespace {

CompactStorage compressed(const workloads::TestFunction& f, dim_t d,
                          level_t n) {
  CompactStorage s(d, n);
  s.sample(f.f);
  hierarchize(s);
  return s;
}

TEST(Gradient, ValueMatchesEvaluate) {
  const CompactStorage s = compressed(workloads::simulation_field(3), 3, 5);
  for (const CoordVector& x : workloads::uniform_points(3, 200, 17)) {
    const ValueAndGradient vg = evaluate_with_gradient(s, x);
    EXPECT_NEAR(vg.value, evaluate(s, x), 1e-13);
  }
}

TEST(Gradient, ExactForSingleHat) {
  // One basis function: gradient = coefficient * tensor-hat gradient.
  CompactStorage s(2, 4);
  s.at(LevelVector{1, 0}, IndexVector{1, 1}) = 2.0;
  // Inside the support, away from kinks: phi(x) = (1 - |4x0 - 1|)(1 - |2x1 - 1|).
  const CoordVector x{0.2, 0.4};
  const ValueAndGradient vg = evaluate_with_gradient(s, x);
  // value factors: 1 - |0.8-1| = 0.8 ; 1 - |0.8-1| = 0.8
  EXPECT_NEAR(vg.value, 2.0 * 0.8 * 0.8, 1e-14);
  // d/dx0: left of center (u<0): +4 -> 2 * 4 * 0.8 = 6.4
  EXPECT_NEAR(vg.gradient[0], 2.0 * 4.0 * 0.8, 1e-14);
  EXPECT_NEAR(vg.gradient[1], 2.0 * 2.0 * 0.8, 1e-14);
}

TEST(Gradient, MatchesFiniteDifferencesAtGenericPoints) {
  const dim_t d = 3;
  const CompactStorage s = compressed(workloads::gaussian_bump(d), d, 5);
  const real_t h = 1e-7;
  // Irrational-ish coordinates: never on a grid line or kink, so fs is
  // smooth in an h-neighbourhood and central differences converge.
  for (const CoordVector& x : workloads::halton_points(d, 100, 1000)) {
    bool skip = false;
    for (dim_t t = 0; t < d; ++t)
      if (x[t] < 2 * h || x[t] > 1 - 2 * h) skip = true;
    if (skip) continue;
    const ValueAndGradient vg = evaluate_with_gradient(s, x);
    for (dim_t t = 0; t < d; ++t) {
      CoordVector lo = x, hi = x;
      lo[t] -= h;
      hi[t] += h;
      const real_t fd = (evaluate(s, hi) - evaluate(s, lo)) / (2 * h);
      EXPECT_NEAR(vg.gradient[t], fd, 1e-5)
          << "dim " << t << " at " << x;
    }
  }
}

TEST(Gradient, PartialDerivativeConstantAlongItsOwnAxisWithinACell) {
  // fs is d-linear per cell: d/dx0 is constant in x0 (but linear in x1
  // through the bilinear cross term), so moving only x0 inside one cell
  // must not change gradient[0].
  const CompactStorage s = compressed(workloads::parabola_product(2), 2, 4);
  const ValueAndGradient a =
      evaluate_with_gradient(s, CoordVector{0.501, 0.501});
  const ValueAndGradient b =
      evaluate_with_gradient(s, CoordVector{0.52, 0.501});
  EXPECT_NEAR(a.gradient[0], b.gradient[0], 1e-12);
  const ValueAndGradient c =
      evaluate_with_gradient(s, CoordVector{0.501, 0.53});
  EXPECT_NEAR(a.gradient[1], c.gradient[1], 1e-12);
}

TEST(Gradient, ZeroAtThePeakOfSymmetricData) {
  // parabola_product is symmetric about 0.5 per dimension and 0.5 is a
  // grid point; the interpolant's left-derivative at the peak is the
  // slope of the cell left of 0.5, positive, and the gradient just right
  // of it is negative — sanity of the kink convention.
  const CompactStorage s = compressed(workloads::parabola_product(1), 1, 6);
  const ValueAndGradient left =
      evaluate_with_gradient(s, CoordVector{0.5});
  const ValueAndGradient right =
      evaluate_with_gradient(s, CoordVector{0.5 + 1e-9});
  EXPECT_GT(left.gradient[0], 0.0);
  EXPECT_LT(right.gradient[0], 0.0);
}

TEST(Gradient, LeftDerivativeWhereAHatEnds) {
  // One level-1 hat on [0, 0.5]: at its right end the left derivative is
  // the falling slope -1/h = -4, although support_index_1d selects the
  // right cell, whose hat is 0 there.
  CompactStorage s(1, 2);
  s.at(LevelVector{1}, IndexVector{1}) = 1.0;
  const ValueAndGradient vg = evaluate_with_gradient(s, CoordVector{0.5});
  EXPECT_EQ(vg.value, 0.0);
  EXPECT_EQ(vg.gradient[0], -4.0);
}

TEST(Gradient, LeftDerivativeOfHatsMeetingOnAGridLine) {
  // hat0 + hat(1,1) at x = 0.5: hat0 rises with slope +2 from the left and
  // hat(1,1) falls with slope -4, so both one-sided derivatives are -2.
  CompactStorage s(1, 2);
  s.at(LevelVector{0}, IndexVector{1}) = 1.0;
  s.at(LevelVector{1}, IndexVector{1}) = 1.0;
  const ValueAndGradient vg = evaluate_with_gradient(s, CoordVector{0.5});
  EXPECT_EQ(vg.value, 1.0);
  EXPECT_EQ(vg.gradient[0], -2.0);
}

TEST(Gradient, OneSidedDerivativesAtTheDomainEnds) {
  // x = 0 has no cell to its left: the right derivative (rising slope of
  // the first hat) is taken. x = 1 takes the left one (falling slope).
  CompactStorage s(1, 3);
  s.at(LevelVector{2}, IndexVector{1}) = 1.0;
  s.at(LevelVector{2}, IndexVector{7}) = 3.0;
  EXPECT_EQ(evaluate_with_gradient(s, CoordVector{0.0}).gradient[0], 8.0);
  EXPECT_EQ(evaluate_with_gradient(s, CoordVector{1.0}).gradient[0], -24.0);
}

TEST(Gradient, MatchesLeftDifferenceQuotientOnGridLines) {
  // At dyadic points every coordinate sits on grid lines of several levels
  // (and on kinks). fs is linear along each axis on [x_t - h, x_t] for h
  // below the finest mesh width, so the left difference quotient is the
  // left derivative up to rounding.
  const auto res = csg::testing::run_property(
      {"gradient_left_quotient_on_grid_lines", 8},
      [](std::mt19937_64& rng) -> std::string {
        const dim_t d = 3;
        const level_t n = 5;
        CompactStorage s(d, n);
        std::uniform_real_distribution<real_t> coeff(-1, 1);
        for (flat_index_t j = 0; j < s.size(); ++j) s[j] = coeff(rng);
        const real_t h = std::ldexp(1.0, -20);
        std::uniform_int_distribution<int> level(0, static_cast<int>(n));
        for (int trial = 0; trial < 20; ++trial) {
          CoordVector x(d);
          for (dim_t t = 0; t < d; ++t) {
            const int m = level(rng);
            std::uniform_int_distribution<int> k(1, 1 << m);
            x[t] = std::ldexp(static_cast<real_t>(k(rng)), -m);
          }
          const ValueAndGradient vg = evaluate_with_gradient(s, x);
          for (dim_t t = 0; t < d; ++t) {
            CoordVector lo = x;
            lo[t] -= h;
            const real_t quotient = (evaluate(s, x) - evaluate(s, lo)) / h;
            if (std::abs(vg.gradient[t] - quotient) > 1e-7) {
              std::ostringstream os;
              os << "dim " << t << " at " << x << ": gradient "
                 << vg.gradient[t] << " but left quotient " << quotient;
              return os.str();
            }
          }
        }
        return "";
      });
  EXPECT_TRUE(res.passed) << res.detail;
}

TEST(Integrate, SingleBasisIntegralIsMeshWidthProduct) {
  CompactStorage s(3, 4);
  const LevelVector l{0, 1, 2};
  const IndexVector i{1, 3, 5};
  s.at(l, i) = 1.0;
  // integral = 2^-(0+1) * 2^-(1+1) * 2^-(2+1) = 2^-6.
  EXPECT_NEAR(integrate(s), std::ldexp(1.0, -6), 1e-15);
}

TEST(Integrate, LinearInCoefficients) {
  CompactStorage a = compressed(workloads::gaussian_bump(2), 2, 5);
  CompactStorage b = compressed(workloads::oscillatory(2), 2, 5);
  CompactStorage combo = a;
  for (flat_index_t j = 0; j < combo.size(); ++j)
    combo[j] = 2 * a[j] - 5 * b[j];
  EXPECT_NEAR(integrate(combo), 2 * integrate(a) - 5 * integrate(b), 1e-12);
}

TEST(Integrate, ConvergesToKnownIntegral) {
  // int of prod 4x(1-x) over [0,1]^d = (2/3)^d.
  const dim_t d = 3;
  const real_t exact = std::pow(2.0 / 3.0, d);
  real_t prev = 1;
  for (level_t n : {3, 5, 7}) {
    const CompactStorage s = compressed(workloads::parabola_product(d), d, n);
    const real_t err = std::abs(integrate(s) - exact);
    EXPECT_LT(err, prev);
    prev = err;
  }
  EXPECT_LT(prev, 1e-3);
}

TEST(Integrate, MatchesMonteCarloOnRoughField) {
  const dim_t d = 4;
  const CompactStorage s = compressed(workloads::simulation_field(d), d, 6);
  real_t mc = 0;
  const auto pts = workloads::halton_points(d, 20000);
  for (const CoordVector& x : pts) mc += evaluate(s, x);
  mc /= static_cast<real_t>(pts.size());
  EXPECT_NEAR(integrate(s), mc, 5e-3);
}

TEST(MaxSurplus, DecaysForSmoothFunctions) {
  const CompactStorage s = compressed(workloads::parabola_product(2), 2, 7);
  const auto per_group = max_surplus_per_group(s);
  ASSERT_EQ(per_group.size(), 7u);
  // Surpluses of a C^2 function decay ~4x per level.
  for (std::size_t j = 2; j < per_group.size(); ++j)
    EXPECT_LT(per_group[j], per_group[j - 1]);
  EXPECT_LT(per_group.back(), per_group.front() / 100);
}

TEST(MaxSurplus, FlatForKinkedFunctionsAlongTheKink) {
  // A function with a kink not aligned to any grid line keeps large
  // surpluses at every level (no decay) — the smoothness fingerprint that
  // motivates adaptivity.
  CompactStorage s(2, 7);
  s.sample([](const CoordVector& x) {
    return std::abs(x[0] + x[1] - 0.93) * 4 * x[0] * (1 - x[0]) * 4 * x[1] *
           (1 - x[1]);
  });
  hierarchize(s);
  const auto per_group = max_surplus_per_group(s);
  EXPECT_GT(per_group.back(), per_group.front() / 100);
}

}  // namespace
}  // namespace csg
