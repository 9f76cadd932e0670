#include "csg/core/restriction.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"
#include "csg/testing/compare.hpp"
#include "csg/testing/generators.hpp"
#include "csg/testing/oracles.hpp"
#include "csg/testing/param_names.hpp"
#include "csg/testing/reference_evaluate.hpp"

namespace csg {
namespace {

CompactStorage compressed(const workloads::TestFunction& f, dim_t d,
                          level_t n) {
  CompactStorage s(d, n);
  s.sample(f.f);
  hierarchize(s);
  return s;
}

TEST(Restriction, EmbedInPlaneInterleavesCoordinates) {
  const CoordVector full = embed_in_plane(
      5, DimVector<dim_t>{1, 3}, CoordVector{0.1, 0.2, 0.3},
      CoordVector{0.8, 0.9});
  ASSERT_EQ(full.size(), 5u);
  EXPECT_EQ(full[0], 0.1);  // dropped
  EXPECT_EQ(full[1], 0.8);  // kept slot 0
  EXPECT_EQ(full[2], 0.2);  // dropped
  EXPECT_EQ(full[3], 0.9);  // kept slot 1
  EXPECT_EQ(full[4], 0.3);  // dropped
}

struct Case {
  dim_t d;
  level_t n;
  DimVector<dim_t> kept;
};

class RestrictionSweep : public ::testing::TestWithParam<Case> {};

TEST_P(RestrictionSweep, RestrictedInterpolantEqualsFullOnThePlane) {
  const auto& [d, n, kept] = GetParam();
  const auto f = workloads::simulation_field(d);
  const CompactStorage full = compressed(f, d, n);
  CoordVector anchor(d - kept.size());
  for (dim_t s = 0; s < anchor.size(); ++s)
    anchor[s] = static_cast<real_t>(0.15 + 0.6 * s / (anchor.size()));
  const CompactStorage restricted = restrict_to_plane(full, kept, anchor);
  ASSERT_EQ(restricted.dim(), kept.size());
  ASSERT_EQ(restricted.grid().level(), n);
  for (const CoordVector& x :
       workloads::uniform_points(kept.size(), 200, 55)) {
    const CoordVector embedded = embed_in_plane(d, kept, anchor, x);
    EXPECT_NEAR(evaluate(restricted, x), evaluate(full, embedded), 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RestrictionSweep,
    ::testing::Values(Case{2, 5, {0}}, Case{3, 5, {1}}, Case{3, 5, {0, 2}},
                      Case{4, 4, {1, 2}}, Case{5, 4, {0, 4}},
                      Case{5, 4, {0, 1, 2, 3}}, Case{6, 3, {2, 3, 5}}),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      std::string name = csg::testing::dn_name(tpi.param.d, tpi.param.n);
      name += 'k';
      for (dim_t kd : tpi.param.kept) name += std::to_string(kd);
      return name;
    });

TEST(Restriction, AnchorOnGridLineStillExact) {
  // Anchor exactly on a coarse grid coordinate: many weights vanish; the
  // identity must still hold.
  const CompactStorage full = compressed(workloads::gaussian_bump(3), 3, 5);
  const CompactStorage slice =
      restrict_to_plane(full, DimVector<dim_t>{0, 1}, CoordVector{0.5});
  for (const CoordVector& x : workloads::uniform_points(2, 100, 4)) {
    EXPECT_NEAR(evaluate(slice, x),
                evaluate(full, CoordVector{x[0], x[1], 0.5}), 1e-13);
  }
}

TEST(Restriction, AnchorOnBoundaryGivesZeroFunction) {
  const CompactStorage full = compressed(workloads::parabola_product(3), 3, 4);
  const CompactStorage slice =
      restrict_to_plane(full, DimVector<dim_t>{0, 1}, CoordVector{0.0});
  for (flat_index_t j = 0; j < slice.size(); ++j) EXPECT_EQ(slice[j], 0.0);
}

TEST(Restriction, LineProbeRestriction) {
  // Keep a single dimension: the result is a 1d sparse (= full binary)
  // grid representing the field along the probe line.
  const dim_t d = 4;
  const CompactStorage full = compressed(workloads::oscillatory(d), d, 5);
  const CoordVector anchor{0.3, 0.45, 0.62};
  const CompactStorage line =
      restrict_to_plane(full, DimVector<dim_t>{2}, anchor);
  ASSERT_EQ(line.dim(), 1u);
  for (real_t x0 : {0.05, 0.31, 0.5, 0.77, 0.99}) {
    EXPECT_NEAR(evaluate(line, CoordVector{x0}),
                evaluate(full, CoordVector{0.3, 0.45, x0, 0.62}), 1e-13);
  }
}

TEST(Restriction, RepeatedRestrictionComposes) {
  // Restricting 4d -> 2d directly equals restricting 4d -> 3d -> 2d.
  const CompactStorage full = compressed(workloads::simulation_field(4), 4, 4);
  const CompactStorage direct = restrict_to_plane(
      full, DimVector<dim_t>{0, 2}, CoordVector{0.35, 0.8});
  const CompactStorage step1 = restrict_to_plane(
      full, DimVector<dim_t>{0, 2, 3}, CoordVector{0.35});
  const CompactStorage step2 =
      restrict_to_plane(step1, DimVector<dim_t>{0, 1}, CoordVector{0.8});
  ASSERT_EQ(direct.size(), step2.size());
  for (flat_index_t j = 0; j < direct.size(); ++j)
    EXPECT_NEAR(direct[j], step2[j], 1e-13);
}

// Bit-for-bit parity with the point-by-point walk: d = 2..6 at n = 1, 3,
// 5, 7 on random coefficients with every 7th one a signed zero; kept sets
// of size 1 and d - 1, non-contiguous and random; anchors at 0, at 1, on
// grid lines of levels below n, in general position and mixed.
struct ParityCase {
  dim_t d;
  level_t n;
};

class RestrictionParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(RestrictionParity, MatchesPointwiseWalkBitForBit) {
  const auto [d, n] = GetParam();
  std::mt19937_64 rng(500 + 10 * d + n);
  CompactStorage coeffs = csg::testing::random_coefficients(rng, d, n);
  for (flat_index_t j = 0; j < coeffs.size(); j += 7)
    coeffs[j] = (j / 7) % 2 ? -0.0 : 0.0;

  std::vector<DimVector<dim_t>> kept_sets{{0}, {d - 1}};
  DimVector<dim_t> all_but_one;  // size d - 1, dropping a middle dimension
  for (dim_t t = 0; t < d; ++t)
    if (t != d / 2) all_but_one.push_back(t);
  kept_sets.push_back(all_but_one);
  if (d >= 3) kept_sets.push_back({0, d - 1});  // non-contiguous
  kept_sets.push_back(csg::testing::random_kept_dims(
      rng, d, std::uniform_int_distribution<dim_t>(1, d - 1)(rng)));

  std::uniform_real_distribution<real_t> uniform(0, 1);
  // A coordinate on a grid line of a random level m < n: odd / 2^(m+1).
  auto grid_line = [&] {
    const auto m = std::uniform_int_distribution<level_t>(0, n - 1)(rng);
    const auto i = 2 * std::uniform_int_distribution<index1d_t>(
                           0, (index1d_t{1} << m) - 1)(rng) + 1;
    return static_cast<real_t>(i) / exact_pow2(static_cast<int>(m + 1));
  };
  // Kinds 0..3: at 0, at 1, on a grid line, general; kind 4 mixes them.
  auto anchor_value = [&](int kind) -> real_t {
    if (kind == 4) kind = std::uniform_int_distribution<int>(0, 3)(rng);
    switch (kind) {
      case 0: return 0;
      case 1: return 1;
      case 2: return grid_line();
      default: return uniform(rng);
    }
  };
  for (const DimVector<dim_t>& kept : kept_sets) {
    for (int kind = 0; kind < 5; ++kind) {
      CoordVector anchor(d - kept.size());
      for (real_t& a : anchor) a = anchor_value(kind);
      const CompactStorage got = restrict_to_plane(coeffs, kept, anchor);
      const CompactStorage want =
          csg::testing::restrict_to_plane_walk(coeffs, kept, anchor);
      ASSERT_EQ(got.size(), want.size());
      for (flat_index_t j = 0; j < got.size(); ++j)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                  std::bit_cast<std::uint64_t>(want[j]))
            << "kept size " << kept.size() << " anchor kind " << kind
            << " coefficient " << j << ": "
            << csg::testing::describe_mismatch(want[j], got[j]);
      const auto r =
          csg::testing::check_restriction_parity(coeffs, kept, anchor);
      EXPECT_TRUE(r.ok) << r.detail;
    }
  }
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (dim_t d = 2; d <= 6; ++d)
    for (const level_t n : {1, 3, 5, 7}) cases.push_back({d, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RestrictionParity, ::testing::ValuesIn(parity_cases()),
    [](const ::testing::TestParamInfo<ParityCase>& tpi) {
      return csg::testing::dn_name(tpi.param.d, tpi.param.n);
    });

TEST(RestrictionDeath, InvalidArgumentsRejected) {
  const CompactStorage full = compressed(workloads::parabola_product(3), 3, 3);
  EXPECT_DEATH(restrict_to_plane(full, DimVector<dim_t>{0, 1, 2},
                                 CoordVector{}),
               "precondition");  // must drop at least one dim
  EXPECT_DEATH(restrict_to_plane(full, DimVector<dim_t>{1, 0},
                                 CoordVector{0.5}),
               "precondition");  // not increasing
  EXPECT_DEATH(restrict_to_plane(full, DimVector<dim_t>{0},
                                 CoordVector{0.5}),
               "precondition");  // anchor size mismatch
}

}  // namespace
}  // namespace csg
