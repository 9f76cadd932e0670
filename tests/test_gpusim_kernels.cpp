#include "csg/gpusim/kernels.hpp"

#include <gtest/gtest.h>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/gpusim/device.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"
#include "csg/testing/param_names.hpp"

namespace csg::gpusim {
namespace {

struct Case {
  dim_t d;
  level_t n;
};

class KernelSweep : public ::testing::TestWithParam<Case> {};

TEST_P(KernelSweep, HierarchizationIsBitIdenticalToCpu) {
  const auto [d, n] = GetParam();
  const auto f = workloads::simulation_field(d);
  CompactStorage cpu(d, n), gpu(d, n);
  cpu.sample(f.f);
  gpu.sample(f.f);
  hierarchize(cpu);
  Launcher ln(tesla_c1060());
  const GpuRunReport rep = gpu_hierarchize(ln, gpu);
  for (flat_index_t j = 0; j < cpu.size(); ++j)
    ASSERT_EQ(cpu[j], gpu[j]) << "flat index " << j;
  EXPECT_GT(rep.launches, 0u);
  EXPECT_GT(rep.modeled_ms, 0.0);
}

TEST_P(KernelSweep, EvaluationIsBitIdenticalToCpu) {
  const auto [d, n] = GetParam();
  CompactStorage s(d, n);
  s.sample(workloads::gaussian_bump(d).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(d, 128, 5);
  const auto cpu = evaluate_many_blocked(s, pts);
  Launcher ln(tesla_c1060());
  GpuRunReport rep;
  const auto gpu = gpu_evaluate(ln, s, pts, &rep);
  ASSERT_EQ(gpu.size(), cpu.size());
  for (std::size_t p = 0; p < cpu.size(); ++p)
    ASSERT_EQ(gpu[p], cpu[p]) << "point " << p;
  EXPECT_EQ(rep.launches, 1u);
}

TEST_P(KernelSweep, AllConfigurationsProduceTheSameCoefficients) {
  const auto [d, n] = GetParam();
  const auto f = workloads::oscillatory(d);
  CompactStorage ref(d, n);
  ref.sample(f.f);
  hierarchize(ref);
  Launcher ln(tesla_c1060());
  for (BinmatMode bm : {BinmatMode::kConstantCache, BinmatMode::kSharedMemory,
                        BinmatMode::kOnTheFly, BinmatMode::kGlobalCached}) {
    for (LevelVectorMode lm :
         {LevelVectorMode::kBlockShared, LevelVectorMode::kPerThread}) {
      CompactStorage s(d, n);
      s.sample(f.f);
      GpuConfig cfg;
      cfg.binmat = bm;
      cfg.level_vector = lm;
      gpu_hierarchize(ln, s, cfg);
      for (flat_index_t j = 0; j < ref.size(); ++j)
        ASSERT_EQ(s[j], ref[j])
            << "binmat=" << static_cast<int>(bm)
            << " lmode=" << static_cast<int>(lm) << " idx=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelSweep,
    ::testing::Values(Case{1, 5}, Case{2, 5}, Case{3, 4}, Case{5, 4},
                      Case{7, 3}),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      return csg::testing::dn_name(tpi.param.d, tpi.param.n);
    });

TEST_P(KernelSweep, DehierarchizationIsBitIdenticalToCpu) {
  const auto [d, n] = GetParam();
  const auto f = workloads::gaussian_bump(d);
  CompactStorage cpu(d, n), gpu(d, n);
  cpu.sample(f.f);
  gpu.sample(f.f);
  hierarchize(cpu);
  hierarchize(gpu);
  dehierarchize(cpu);
  Launcher ln(tesla_c1060());
  gpu_dehierarchize(ln, gpu);
  for (flat_index_t j = 0; j < cpu.size(); ++j)
    ASSERT_EQ(cpu[j], gpu[j]) << "flat index " << j;
}

TEST_P(KernelSweep, DeviceRoundTripRestoresNodalValues) {
  const auto [d, n] = GetParam();
  const auto f = workloads::simulation_field(d);
  CompactStorage s(d, n);
  s.sample(f.f);
  const std::vector<real_t> nodal = s.values();
  Launcher ln(tesla_c1060());
  gpu_hierarchize(ln, s);
  gpu_dehierarchize(ln, s);
  for (flat_index_t j = 0; j < s.size(); ++j)
    EXPECT_NEAR(s[j], nodal[static_cast<std::size_t>(j)], 1e-12);
}

TEST(GpuKernels, FermiCachesAbsorbTransactions) {
  // The paper's Sec. 8 expectation: Fermi's two-level cache "could be
  // beneficial for both sparse grid operations". The hierarchization's
  // scattered parent reads hit heavily in L2 (coarse groups are reused by
  // all their children), so DRAM transactions drop versus Tesla.
  const dim_t d = 5;
  const level_t n = 6;
  const auto f = workloads::parabola_product(d);
  auto run = [&](const DeviceSpec& spec) {
    Launcher ln(spec);
    CompactStorage s(d, n);
    s.sample(f.f);
    return gpu_hierarchize(ln, s).counters;
  };
  const PerfCounters tesla = run(tesla_c1060());
  const PerfCounters fermi = run(fermi_c2050());
  EXPECT_EQ(tesla.l1_hit_transactions + tesla.l2_hit_transactions, 0u);
  EXPECT_GT(fermi.l1_hit_transactions + fermi.l2_hit_transactions, 0u);
  EXPECT_LT(fermi.global_transactions, tesla.global_transactions);
  // Same coalesced traffic before the caches (same kernel, same accesses).
  EXPECT_EQ(fermi.global_transactions + fermi.l1_hit_transactions +
                fermi.l2_hit_transactions,
            tesla.global_transactions);
  EXPECT_GT(fermi.cache_hit_rate(), 0.2);
}

TEST(GpuKernels, GlobalBinmatIsCheapOnFermiRuinousOnTesla) {
  const dim_t d = 8;
  const level_t n = 5;
  auto run = [&](const DeviceSpec& spec, BinmatMode bm) {
    Launcher ln(spec);
    CompactStorage s(d, n);
    s.sample(workloads::parabola_product(d).f);
    GpuConfig cfg;
    cfg.binmat = bm;
    return gpu_hierarchize(ln, s, cfg).modeled_ms;
  };
  // Tesla: global binmat pays a DRAM transaction per lookup.
  EXPECT_GT(run(tesla_c1060(), BinmatMode::kGlobalCached),
            2 * run(tesla_c1060(), BinmatMode::kConstantCache));
  // Fermi: the L1 absorbs the lookups — within 1.5x of constant cache.
  EXPECT_LT(run(fermi_c2050(), BinmatMode::kGlobalCached),
            1.5 * run(fermi_c2050(), BinmatMode::kConstantCache));
}

TEST(GpuKernels, LauncherResetFlushesDeviceCaches) {
  const dim_t d = 3;
  const level_t n = 5;
  Launcher ln(fermi_c2050());
  auto run_once = [&] {
    CompactStorage s(d, n);
    s.sample(workloads::parabola_product(d).f);
    return gpu_hierarchize(ln, s).counters.global_transactions;
  };
  // gpu_hierarchize resets the launcher (and caches) up front, so repeated
  // runs see identical cold-cache behaviour.
  EXPECT_EQ(run_once(), run_once());
}

TEST(GpuKernels, OnTheFlyBinomialIsSlowerThanConstantCache) {
  // The Sec. 5.3 ablation: recomputing binomials makes hierarchization
  // substantially slower (paper: ~4x at its scale).
  const dim_t d = 6;
  const level_t n = 6;
  Launcher ln(tesla_c1060());
  auto run = [&](BinmatMode bm) {
    CompactStorage s(d, n);
    s.sample(workloads::parabola_product(d).f);
    GpuConfig cfg;
    cfg.binmat = bm;
    return gpu_hierarchize(ln, s, cfg).modeled_ms;
  };
  EXPECT_GT(run(BinmatMode::kOnTheFly), 1.5 * run(BinmatMode::kConstantCache));
}

TEST(GpuKernels, BlockSharedLevelVectorImprovesOccupancy) {
  // The second Sec. 5.3 ablation: sharing l across the block frees shared
  // memory and raises occupancy, hence modeled time drops.
  const dim_t d = 8;
  const level_t n = 5;
  Launcher ln(tesla_c1060());
  auto run = [&](LevelVectorMode lm) {
    CompactStorage s(d, n);
    s.sample(workloads::parabola_product(d).f);
    GpuConfig cfg;
    cfg.level_vector = lm;
    const GpuRunReport r = gpu_hierarchize(ln, s, cfg);
    return std::make_pair(r.modeled_ms, r.mean_occupancy);
  };
  const auto [shared_ms, shared_occ] = run(LevelVectorMode::kBlockShared);
  const auto [private_ms, private_occ] = run(LevelVectorMode::kPerThread);
  EXPECT_GT(shared_occ, private_occ);
  EXPECT_LT(shared_ms, private_ms);
}

TEST(GpuKernels, SharedMemoryPressureGrowsWithDimension) {
  // Sec. 6.2: per-thread shared memory grows linearly with d, squeezing
  // occupancy — the reason the paper expects speedups to drop beyond d=10.
  GpuConfig cfg;
  const std::uint64_t small = evaluate_shared_bytes(2, 6, cfg);
  const std::uint64_t large = evaluate_shared_bytes(10, 6, cfg);
  EXPECT_GT(large, 4 * small);
  const DeviceSpec dev = tesla_c1060();
  EXPECT_GT(dev.occupancy(cfg.block_size, small),
            dev.occupancy(cfg.block_size, large));
}

TEST(GpuKernels, EvaluationCoalescesBetterThanHierarchization) {
  // The paper's qualitative contrast: evaluation's accesses pack well
  // (coords staged cooperatively, coefficients read by nearby threads),
  // hierarchization's parent reads cannot be packed.
  const dim_t d = 4;
  const level_t n = 5;
  CompactStorage s(d, n);
  s.sample(workloads::simulation_field(d).f);
  Launcher ln(tesla_c1060());
  CompactStorage h = s;
  const GpuRunReport hr = gpu_hierarchize(ln, h);
  const auto pts = workloads::uniform_points(d, 2048, 3);
  GpuRunReport er;
  gpu_evaluate(ln, h, pts, &er);
  EXPECT_GT(er.counters.accesses_per_transaction(),
            hr.counters.accesses_per_transaction());
}

TEST(GpuKernels, FermiDeviceRunsTheSameKernels) {
  const dim_t d = 3;
  CompactStorage a(d, 4), b(d, 4);
  a.sample(workloads::gaussian_bump(d).f);
  b.sample(workloads::gaussian_bump(d).f);
  Launcher tesla(tesla_c1060());
  Launcher fermi(fermi_c2050());
  gpu_hierarchize(tesla, a);
  gpu_hierarchize(fermi, b);
  EXPECT_EQ(a.values(), b.values());
}

TEST(GpuKernels, EvaluateHandlesNonMultipleBlockSizes) {
  CompactStorage s(2, 4);
  s.sample(workloads::parabola_product(2).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(2, 130, 9);  // 130 = 2*64 + 2
  Launcher ln(tesla_c1060());
  const auto gpu = gpu_evaluate(ln, s, pts);
  const auto cpu = evaluate_many_blocked(s, pts);
  for (std::size_t p = 0; p < cpu.size(); ++p) ASSERT_EQ(gpu[p], cpu[p]);
}

}  // namespace
}  // namespace csg::gpusim
