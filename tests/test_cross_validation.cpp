// Randomized cross-validation: every representation in the library —
// compact, truncated, adaptive, combination, restriction, serialization —
// must describe the SAME function when built from the same data. Shapes,
// coefficients, and probe points all come from csg::testing's generators,
// and the storage-vs-baseline comparisons run through its differential
// oracles, so each seed fully determines a test case and a failing seed
// replays via CSG_PROPERTY_SEED (see docs/TESTING.md).
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "csg/adaptive/adaptive_grid.hpp"
#include "csg/combination/combination_grid.hpp"
#include "csg/core.hpp"
#include "csg/io/serialize.hpp"
#include "csg/testing/bijection.hpp"
#include "csg/testing/generators.hpp"
#include "csg/testing/oracles.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg {
namespace {

using testing::GridShape;
using testing::ShapeConstraints;

class CrossValidation : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::mt19937_64 rng{GetParam()};

  GridShape random_shape(dim_t min_d, dim_t max_d, level_t min_n,
                         level_t max_n,
                         flat_index_t max_points = 200'000) {
    ShapeConstraints c;
    c.min_dim = min_d;
    c.max_dim = max_d;
    c.min_level = min_n;
    c.max_level = max_n;
    c.max_points = max_points;
    return testing::random_shape(rng, c);
  }
};

TEST_P(CrossValidation, TransformOraclesOnRandomData) {
  // The full differential battery: hierarchize parity across the
  // iterative/literal/poles/OpenMP family and the map/hash/prefix-tree
  // baselines, round trips through every (de)hierarchize pairing, evaluate
  // parity across the batched/blocked/OpenMP paths, and the serialize
  // round trip — all on one random shape + coefficient field per seed.
  const GridShape shape = random_shape(1, 5, 2, 6, 20'000);
  const CompactStorage nodal = testing::random_coefficients(rng, shape);
  const testing::OracleResult r = testing::check_all(nodal, rng);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.comparisons, 0u);
}

TEST_P(CrossValidation, AllRepresentationsAgreeOnRandomCoefficients) {
  const GridShape shape = random_shape(2, 4, 3, 4);
  // Hierarchical coefficients drawn at random; fs is their interpolant.
  CompactStorage compact = testing::random_coefficients(rng, shape);
  const dim_t d = shape.d;
  const level_t n = shape.n;

  // Truncated with eps = 0 is lossless.
  const CompactStorage truncated = TruncatedStorage(compact, 0).densify();

  // Nodal values of fs feed the adaptive grid (regular init).
  adaptive::AdaptiveSparseGrid adaptive_grid(d, n);
  adaptive_grid.sample([&](const CoordVector& x) {
    // The adaptive grid's points coincide with the regular grid's; read
    // the nodal value through evaluation of the hierarchical data.
    return evaluate(compact, x);
  });
  adaptive_grid.hierarchize();

  // The combination technique samples fs at its component grid points;
  // interpolation commutes, so the combination equals fs.
  combination::CombinationGrid combi(d, n);
  combi.sample([&](const CoordVector& x) { return evaluate(compact, x); });

  // Serialization round trip.
  std::stringstream blob;
  io::save(compact, blob);
  const CompactStorage reloaded = io::load(blob);

  for (const CoordVector& x : testing::random_points(rng, d, 60)) {
    const real_t reference = evaluate(compact, x);
    ASSERT_EQ(evaluate(truncated, x), reference);
    ASSERT_EQ(evaluate(reloaded, x), reference);
    ASSERT_NEAR(adaptive_grid.evaluate(x), reference, 1e-11);
    ASSERT_NEAR(combi.evaluate(x), reference, 1e-11);
  }
}

TEST_P(CrossValidation, CombinationOracleOnRandomData) {
  // check_combination_parity: the combination identity at random probes
  // plus the to_compact round trip back to the reference coefficients.
  const GridShape shape = random_shape(2, 4, 3, 4);
  const CompactStorage nodal = testing::random_coefficients(rng, shape);
  const auto pts = testing::random_points(rng, shape.d, 48);
  const testing::OracleResult r =
      testing::check_combination_parity(nodal, pts);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.comparisons, 0u);
}

TEST_P(CrossValidation, AdaptiveOracleOnRandomData) {
  // check_adaptive_parity: per-point surplus agreement between the
  // hash-keyed unstructured hierarchization and the compact passes, plus
  // interpolant agreement at random probes.
  const GridShape shape = random_shape(2, 4, 3, 4);
  const CompactStorage nodal = testing::random_coefficients(rng, shape);
  const auto pts = testing::random_points(rng, shape.d, 48);
  const testing::OracleResult r = testing::check_adaptive_parity(nodal, pts);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.comparisons, 0u);
}

TEST_P(CrossValidation, RestrictionAgreesAtRandomPlanes) {
  const GridShape shape = random_shape(3, 5, 3, 4);
  const dim_t d = shape.d;
  const CompactStorage full = testing::random_coefficients(rng, shape);

  // Random kept subset of size 1..d-1.
  const auto k = static_cast<dim_t>(
      std::uniform_int_distribution<unsigned>(1, d - 1)(rng));
  const DimVector<dim_t> kept = testing::random_kept_dims(rng, d, k);

  std::uniform_real_distribution<real_t> coord(0, 1);
  CoordVector anchor(d - k);
  for (real_t& a : anchor) a = coord(rng);

  const CompactStorage slice = restrict_to_plane(full, kept, anchor);
  for (const CoordVector& x : testing::random_points(rng, k, 40))
    ASSERT_NEAR(evaluate(slice, x),
                evaluate(full, embed_in_plane(d, kept, anchor, x)), 1e-11);
}

TEST_P(CrossValidation, Gp2IdxFuzzAcrossRandomShapes) {
  // Levels chosen so num_points stays small even at kMaxDim; the exhaustive
  // sweep lives in `csgtool selfcheck` and the Bijection tests.
  ShapeConstraints c;
  c.max_dim = kMaxDim;
  c.max_level = 10;
  c.max_points = 2'000'000;
  const GridShape shape = testing::random_shape(rng, c);
  const RegularSparseGrid g(shape.d, shape.n);
  const testing::BijectionReport report =
      testing::verify_bijection_sampled(g, rng, 500);
  ASSERT_TRUE(report.ok) << report.detail;
}

TEST_P(CrossValidation, GradientConsistentWithValueOnRandomData) {
  const GridShape shape = random_shape(1, 4, 2, 5);
  const CompactStorage s = testing::random_coefficients(rng, shape);
  std::uniform_real_distribution<real_t> coord(0.01, 0.99);
  for (int trial = 0; trial < 30; ++trial) {
    CoordVector x(shape.d);
    for (real_t& v : x) v = coord(rng);
    const ValueAndGradient vg = evaluate_with_gradient(s, x);
    ASSERT_NEAR(vg.value, evaluate(s, x), 1e-11);
  }
}

TEST_P(CrossValidation, IntegralMatchesDenseQuadratureOnRandomData) {
  const GridShape shape = random_shape(1, 3, 2, 4);
  const dim_t d = shape.d;
  const level_t n = shape.n;
  const CompactStorage s = testing::random_coefficients(rng, shape);
  // Midpoint-rule quadrature fine enough to resolve every cell exactly in
  // expectation terms: use 4x the finest resolution per dimension.
  const int cells = 1 << (n + 2);
  double acc = 0;
  DimVector<int> c(d, 0);
  for (;;) {
    CoordVector x(d);
    for (dim_t t = 0; t < d; ++t)
      x[t] = (static_cast<real_t>(c[t]) + real_t{0.5}) / cells;
    acc += evaluate(s, x);
    dim_t t = d;
    bool done = true;
    while (t-- > 0) {
      if (++c[t] < cells) {
        done = false;
        break;
      }
      c[t] = 0;
    }
    if (done) break;
  }
  acc /= std::pow(static_cast<double>(cells), d);
  ASSERT_NEAR(integrate(s), acc, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace csg
