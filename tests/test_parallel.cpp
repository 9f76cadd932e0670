#include "csg/parallel/omp_algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "csg/baselines/map_storages.hpp"
#include "csg/baselines/prefix_tree_storage.hpp"
#include "csg/testing/oracles.hpp"
#include "csg/testing/param_names.hpp"
#include "csg/testing/reference_evaluate.hpp"
#include "csg/testing/reference_hierarchize.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg::parallel {
namespace {

using baselines::sample;

/// 1, 2, a couple of odd counts, and hardware_concurrency() + 3 so the
/// sweep always includes an oversubscribed configuration (more threads than
/// cores forces preemption mid-region, which is what shakes out missing
/// barriers under the TSan lane). Deduplicated: on small machines hw + 3
/// can collide with the fixed counts, and gtest requires unique suffixes.
std::vector<int> thread_counts() {
  std::vector<int> counts{1, 2, 3, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  counts.push_back(static_cast<int>(hw == 0 ? 4 : hw) + 3);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, OmpHierarchizeMatchesSequential) {
  const int threads = GetParam();
  const dim_t d = 4;
  const level_t n = 5;
  const auto f = workloads::simulation_field(d);
  CompactStorage seq(d, n), par(d, n);
  seq.sample(f.f);
  par.sample(f.f);
  hierarchize(seq);
  omp_hierarchize(par, threads);
  for (flat_index_t j = 0; j < seq.size(); ++j)
    ASSERT_EQ(seq[j], par[j]) << "threads=" << threads << " idx=" << j;
}

TEST_P(ThreadSweep, OmpPoleHierarchizeIsBitIdenticalToSequential) {
  // Against the sequential group-order Alg. 6 oracle, not only against the
  // sequential pole sweep the OpenMP form shares its kernel with.
  const int threads = GetParam();
  const dim_t d = 4;
  const level_t n = 5;
  CompactStorage seq(d, n), par(d, n);
  seq.sample(workloads::simulation_field(d).f);
  par.sample(workloads::simulation_field(d).f);
  csg::testing::hierarchize_groups(seq);
  omp_hierarchize(par, threads);
  for (flat_index_t j = 0; j < seq.size(); ++j)
    ASSERT_EQ(seq[j], par[j]) << "threads=" << threads << " idx=" << j;
}

TEST_P(ThreadSweep, OmpDehierarchizeMatchesSequential) {
  const int threads = GetParam();
  const dim_t d = 4;
  const level_t n = 5;
  CompactStorage seq(d, n);
  seq.sample(workloads::simulation_field(d).f);
  hierarchize(seq);
  CompactStorage par = seq;
  dehierarchize(seq);
  omp_dehierarchize(par, threads);
  for (flat_index_t j = 0; j < seq.size(); ++j)
    ASSERT_EQ(seq[j], par[j]) << "threads=" << threads << " idx=" << j;
}

TEST_P(ThreadSweep, OmpTransformsWithMoreThreadsThanPoleRoots) {
  // d=1 has one pole root per dimension, d=2 n=2 two, d=3 n=1 one: most
  // threads of the team get no pole family at all. The sweep visits only
  // the multi-point families, and single-point ones (|l|_1 = n-1) are 45 of
  // 55 ranks at d=10 n=3, 210 of 330 at d=8 n=5 and 9 of 10 at d=10 n=2;
  // d=4 n=8 has 84 multi-point families, six chunks with a short last one.
  const int threads = GetParam();
  const struct {
    dim_t d;
    level_t n;
  } shapes[] = {{1, 6}, {2, 2}, {3, 1}, {10, 3}, {8, 5}, {10, 2}, {4, 8}};
  for (const auto [d, n] : shapes) {
    CompactStorage seq(d, n);
    seq.sample(workloads::oscillatory(d).f);
    CompactStorage par = seq;
    csg::testing::hierarchize_groups(seq);
    omp_hierarchize(par, threads);
    for (flat_index_t j = 0; j < seq.size(); ++j)
      ASSERT_EQ(seq[j], par[j]) << "forward d=" << d << " n=" << n
                                << " threads=" << threads << " idx=" << j;
    csg::testing::dehierarchize_groups(seq);
    omp_dehierarchize(par, threads);
    for (flat_index_t j = 0; j < seq.size(); ++j)
      ASSERT_EQ(seq[j], par[j]) << "inverse d=" << d << " n=" << n
                                << " threads=" << threads << " idx=" << j;
  }
}

TEST_P(ThreadSweep, OmpDehierarchizeInvertsOmpHierarchize) {
  const int threads = GetParam();
  const dim_t d = 3;
  const level_t n = 6;
  CompactStorage s(d, n);
  s.sample(workloads::gaussian_bump(d).f);
  const std::vector<real_t> nodal = s.values();
  omp_hierarchize(s, threads);
  omp_dehierarchize(s, threads);
  for (flat_index_t j = 0; j < s.size(); ++j)
    EXPECT_NEAR(s[j], nodal[static_cast<std::size_t>(j)], 1e-12);
}

TEST_P(ThreadSweep, OmpEvaluateMatchesSequential) {
  const int threads = GetParam();
  const dim_t d = 3;
  CompactStorage s(d, 5);
  s.sample(workloads::oscillatory(d).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(d, 257, 31);
  // Per-point form: one-point blocks, sequential and threaded, against the
  // scalar per-point plan scan.
  const auto seq = csg::testing::evaluate_blocked_scalar(s, pts, 1);
  const auto par = omp_evaluate_many_blocked(s, pts, 1, threads);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t p = 0; p < pts.size(); ++p) {
    EXPECT_EQ(par[p], seq[p]);
    EXPECT_EQ(evaluate(s, pts[p]), seq[p]);
  }
}

TEST_P(ThreadSweep, OmpRecursiveHierarchizationOverBaselines) {
  const int threads = GetParam();
  const dim_t d = 3;
  const level_t n = 4;
  const auto f = workloads::gaussian_bump(d);
  CompactStorage ref(d, n);
  ref.sample(f.f);
  hierarchize(ref);

  baselines::PrefixTreeStorage tree(d, n);
  sample(tree, f.f);
  omp_hierarchize_recursive(tree, threads);
  baselines::EnhancedHashStorage hash(d, n);
  sample(hash, f.f);
  omp_hierarchize_recursive(hash, threads);

  baselines::for_each_point(
      ref.grid(), [&](const LevelVector& l, const IndexVector& i) {
        EXPECT_NEAR(tree.get(l, i), ref.get(l, i), 1e-13);
        EXPECT_NEAR(hash.get(l, i), ref.get(l, i), 1e-13);
      });
}

TEST_P(ThreadSweep, OmpRecursiveEvaluationOverBaselines) {
  const int threads = GetParam();
  const dim_t d = 3;
  CompactStorage s(d, 4);
  s.sample(workloads::parabola_product(d).f);
  hierarchize(s);
  baselines::PrefixTreeStorage tree(d, 4);
  sample(tree, workloads::parabola_product(d).f);
  baselines::hierarchize_recursive(tree);
  const auto pts = workloads::uniform_points(d, 100, 77);
  const auto expected = evaluate_many_blocked(s, pts);
  const auto got = omp_evaluate_many_recursive(tree, pts, threads);
  for (std::size_t p = 0; p < pts.size(); ++p)
    EXPECT_NEAR(got[p], expected[p], 1e-13);
}

TEST_P(ThreadSweep, OmpPoleAndGroupSchemesAgree) {
  // The OpenMP pole sweep and the per-level-group oracle are the same
  // arithmetic, only scheduled differently: the zero-ULP oracles must pass
  // in both directions at every thread count.
  const int threads = GetParam();
  const dim_t d = 4;
  const level_t n = 5;
  CompactStorage s(d, n);
  s.sample(workloads::oscillatory(d).f);
  csg::testing::OracleOptions opts;
  opts.threads = threads;
  opts.include_baselines = false;
  const csg::testing::OracleResult forward =
      csg::testing::check_hierarchize_parity(s, opts);
  EXPECT_TRUE(forward.ok) << forward.detail;
  hierarchize(s);
  const csg::testing::OracleResult inverse =
      csg::testing::check_dehierarchize_parity(s, opts);
  EXPECT_TRUE(inverse.ok) << inverse.detail;
}

TEST_P(ThreadSweep, OmpBlockedEvaluateEdgeBlockSizes) {
  // Degenerate blockings must not change results or crash: one point per
  // block (maximal scheduling overhead), a block larger than the whole
  // point set (single block), and a size that does not divide the count
  // (ragged final block). SIZE_MAX and SIZE_MAX - 1 are single blocks too:
  // a block count rounded up as (size + block - 1) / block wraps to zero
  // blocks for them and leaves every output 0.
  const int threads = GetParam();
  const dim_t d = 3;
  CompactStorage s(d, 5);
  s.sample(workloads::oscillatory(d).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(d, 103, 19);  // prime count
  const auto expected = csg::testing::evaluate_blocked_scalar(s, pts, 1);
  for (const std::size_t block :
       {std::size_t{1}, pts.size() + 17, std::size_t{16}, std::size_t{64},
        SIZE_MAX, SIZE_MAX - 1}) {
    const auto got = omp_evaluate_many_blocked(s, pts, block, threads);
    ASSERT_EQ(got.size(), expected.size()) << "block=" << block;
    for (std::size_t p = 0; p < pts.size(); ++p)
      ASSERT_EQ(got[p], expected[p])
          << "threads=" << threads << " block=" << block << " point=" << p;
  }
}

TEST_P(ThreadSweep, OmpBlockedEvaluateEmptyPointSet) {
  const int threads = GetParam();
  CompactStorage s(2, 4);
  s.sample(workloads::gaussian_bump(2).f);
  hierarchize(s);
  const std::vector<CoordVector> none;
  EXPECT_TRUE(omp_evaluate_many_blocked(s, none, 8, threads).empty());
  EXPECT_TRUE(omp_evaluate_many_blocked(s, none, 1, threads).empty());
}

TEST_P(ThreadSweep, OmpBlockedEvaluateBitIdenticalToSpanWalk) {
  // testing::evaluate_walk is the no-plan reference for Alg. 7; every
  // production evaluation path — single point, blocked, threaded — is
  // defined to be bit-identical to it, so EXPECT_EQ, not EXPECT_NEAR.
  const int threads = GetParam();
  const dim_t d = 4;
  CompactStorage s(d, 4);
  s.sample(workloads::parabola_product(d).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(d, 61, 5);
  const auto got = omp_evaluate_many_blocked(s, pts, 7, threads);
  ASSERT_EQ(got.size(), pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p)
    ASSERT_EQ(got[p],
              csg::testing::evaluate_walk(s.grid(), s.values(), pts[p]))
        << "threads=" << threads << " point=" << p;
}

TEST_P(ThreadSweep, OmpIdx2GpSampleIsBitIdenticalToCompactSample) {
  // idx2gp's subspace memo is thread_local: a static-schedule OpenMP sample
  // through idx2gp (each thread starts mid-subspace with a cold memo) must
  // equal the sequential CompactStorage::sample bit for bit.
  const int threads = GetParam();
  const dim_t d = 6;
  const level_t n = 8;
  const auto f = workloads::simulation_field(d);
  CompactStorage seq(d, n);
  seq.sample(f.f);
  const RegularSparseGrid& g = seq.grid();
  std::vector<real_t> par(seq.size());
  const auto count = static_cast<std::int64_t>(g.num_points());
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::int64_t j = 0; j < count; ++j)
    par[static_cast<std::size_t>(j)] =
        f.f(coordinates(g.idx2gp(static_cast<flat_index_t>(j))));
  for (flat_index_t j = 0; j < seq.size(); ++j)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(seq[j]),
              std::bit_cast<std::uint64_t>(par[j]))
        << "threads=" << threads << " idx=" << j;
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         ::testing::ValuesIn(thread_counts()),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           return csg::testing::prefixed_name("t", tpi.param);
                         });

TEST(Parallel, RepeatedRunsAreDeterministic) {
  // Static decomposition writes each coefficient exactly once per pass, so
  // results do not depend on scheduling.
  const dim_t d = 4;
  CompactStorage a(d, 4), b(d, 4);
  a.sample(workloads::simulation_field(d).f);
  b.sample(workloads::simulation_field(d).f);
  omp_hierarchize(a, 4);
  omp_hierarchize(b, 4);
  EXPECT_EQ(a.values(), b.values());
}

TEST(ParallelDeath, ZeroThreadsRejected) {
  CompactStorage s(2, 3);
  EXPECT_DEATH(omp_hierarchize(s, 0), "precondition");
}

}  // namespace
}  // namespace csg::parallel
