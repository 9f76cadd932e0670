#include "csg/core/truncated.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "csg/core/evaluate.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/core/hierarchize.hpp"
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

TEST(Truncated, ZeroThresholdIsLossless) {
  const CompactStorage s = compressed(workloads::simulation_field(3), 3, 5);
  const TruncatedStorage t(s, 0);
  EXPECT_EQ(t.error_bound(), 0.0);
  const CompactStorage dense = t.densify();
  for (const CoordVector& x : workloads::uniform_points(3, 100, 5))
    EXPECT_EQ(evaluate(dense, x), evaluate(s, x));
}

TEST(Truncated, IndicesAreStrictlyIncreasing) {
  const CompactStorage s = compressed(workloads::gaussian_bump(3), 3, 5);
  const TruncatedStorage t(s, 1e-4);
  for (std::size_t k = 1; k < t.indices().size(); ++k)
    ASSERT_LT(t.indices()[k - 1], t.indices()[k]);
}

TEST(Truncated, ErrorStaysWithinTheBound) {
  const dim_t d = 3;
  const CompactStorage s = compressed(workloads::simulation_field(d), d, 6);
  for (const real_t eps : {1e-5, 1e-4, 1e-3, 1e-2}) {
    const TruncatedStorage t(s, eps);
    const CompactStorage dense = t.densify();
    real_t max_err = 0;
    for (const CoordVector& x : workloads::halton_points(d, 500))
      max_err =
          std::max(max_err, std::abs(evaluate(dense, x) - evaluate(s, x)));
    EXPECT_LE(max_err, t.error_bound() + 1e-14) << "eps=" << eps;
  }
}

TEST(Truncated, CompressionGrowsWithThresholdAndSmoothness) {
  const dim_t d = 3;
  const level_t n = 6;
  const CompactStorage smooth = compressed(workloads::parabola_product(d), d, n);
  const TruncatedStorage loose(smooth, 5e-3);
  const TruncatedStorage tight(smooth, 1e-6);
  EXPECT_LT(loose.kept_count(), tight.kept_count());
  // Smooth data: this truncation keeps only the coarse groups (the tensor
  // parabola's surpluses are exactly 4^{-|l|}).
  EXPECT_LT(loose.kept_count(), smooth.values().size() / 4);
  EXPECT_LT(loose.payload_ratio(), 0.5);  // net savings over dense storage
  EXPECT_EQ(loose.kept_count() + loose.dropped_count(),
            static_cast<std::size_t>(smooth.size()));
}

TEST(Truncated, DensifyRoundTripsSurvivors) {
  const CompactStorage s = compressed(workloads::oscillatory(2), 2, 6);
  const TruncatedStorage t(s, 1e-4);
  const CompactStorage dense = t.densify();
  ASSERT_EQ(dense.size(), s.size());
  std::size_t kept_seen = 0;
  for (flat_index_t j = 0; j < s.size(); ++j) {
    if (std::abs(s[j]) > 1e-4) {
      EXPECT_EQ(dense[j], s[j]);
      ++kept_seen;
    } else {
      EXPECT_EQ(dense[j], 0.0);
    }
  }
  EXPECT_EQ(kept_seen, t.kept_count());
}

TEST(Truncated, DensifiedEvaluationMatchesTruncatedEvaluation) {
  // The truncated interpolant is the sum over the kept pairs of
  // alpha_j * phi_j(x); the dense kernel on densify() must agree with it.
  const CompactStorage s = compressed(workloads::gaussian_bump(4), 4, 4);
  const TruncatedStorage t(s, 5e-4);
  const CompactStorage dense = t.densify();
  for (const CoordVector& x : workloads::uniform_points(4, 100, 21)) {
    real_t expansion = 0;
    for (std::size_t k = 0; k < t.kept_count(); ++k) {
      const GridPoint gp = t.grid().idx2gp(t.indices()[k]);
      real_t phi = 1;
      for (dim_t u = 0; u < gp.level.size(); ++u)
        phi *= hat_basis_1d(gp.level[u], gp.index[u], x[u]);
      expansion += t.values()[k] * phi;
    }
    EXPECT_NEAR(evaluate(dense, x), expansion, 1e-15);
  }
}

TEST(Truncated, SmoothFieldsCompressHarderThanRoughOnes) {
  // At eps = 1e-3 the smooth tensor parabola's kept set SATURATES (deep
  // groups all fall below threshold: surpluses are 4^{-|l|}), while the
  // kinked ridge keeps gaining coefficients with every level (the kink
  // plane crosses ~4x more cells per level and its surpluses only decay
  // like 2^{-|l|}).
  const dim_t d = 3;
  const real_t eps = 1e-3;
  auto kept = [&](level_t n, bool rough) {
    CompactStorage src(d, n);
    if (rough) {
      src.sample([](const CoordVector& x) {
        return std::abs(x[0] + x[1] + x[2] - 1.47) * 4 * x[0] * (1 - x[0]);
      });
    } else {
      src.sample(workloads::parabola_product(d).f);
    }
    hierarchize(src);
    return TruncatedStorage(src, eps).kept_count();
  };
  EXPECT_LT(kept(8, false), kept(8, true));
  // Saturation for the smooth field: refining the grid adds nothing above
  // threshold.
  EXPECT_LE(kept(8, false), kept(6, false) + 8);
  // Growth for the kinked field.
  EXPECT_GT(kept(8, true), 2 * kept(6, true));
}

TEST(TruncatedDeath, NegativeThresholdRejected) {
  const CompactStorage s = compressed(workloads::parabola_product(2), 2, 3);
  EXPECT_DEATH(TruncatedStorage(s, -1.0), "precondition");
}

}  // namespace
}  // namespace csg
