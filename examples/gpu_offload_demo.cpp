// Running the sparse grid operations "on the GPU": the simulated Tesla
// C1060 executes the paper's kernels functionally and reports the event
// counts and modeled timing of Sec. 5/6 — a tour of the gpusim substrate
// and of what the compact data structure buys on SIMD hardware.
#include <cstdio>

#include "csg/core.hpp"
#include "csg/gpusim/kernels.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace {

using namespace csg;
using namespace csg::gpusim;

void report(const char* what, const GpuRunReport& r, std::uint32_t warp) {
  std::printf("%s:\n", what);
  std::printf("  kernel launches        %10llu\n",
              static_cast<unsigned long long>(r.launches));
  std::printf("  modeled time           %10.3f ms\n", r.modeled_ms);
  std::printf("  mean occupancy         %10.2f\n", r.mean_occupancy);
  std::printf("  SIMD efficiency        %10.2f\n",
              r.counters.simd_efficiency(warp));
  std::printf("  global transactions    %10llu\n",
              static_cast<unsigned long long>(r.counters.global_transactions));
  std::printf("  accesses/transaction   %10.2f (32 = perfectly coalesced)\n",
              r.counters.accesses_per_transaction());
}

}  // namespace

int main() {
  const dim_t d = 6;
  const level_t n = 7;
  const auto f = workloads::simulation_field(d);

  CompactStorage storage(d, n);
  storage.sample(f.f);
  std::printf("grid: d=%u level=%u, %llu points\n\n", d, n,
              static_cast<unsigned long long>(storage.size()));

  for (const DeviceSpec& spec : {tesla_c1060(), fermi_c2050()}) {
    std::printf("=== %s ===\n", spec.name);
    Launcher launcher(spec);

    CompactStorage dev = storage;
    const GpuRunReport h = gpu_hierarchize(launcher, dev);
    report("hierarchization (compression)", h, spec.warp_size);

    // Verify against the CPU result — the kernels are bit-identical.
    CompactStorage cpu = storage;
    hierarchize(cpu);
    std::printf("  matches CPU result     %10s\n\n",
                cpu.values() == dev.values() ? "bit-exact" : "MISMATCH");

    const auto pts = workloads::uniform_points(d, 2048, 42);
    GpuRunReport e;
    const auto gpu_vals = gpu_evaluate(launcher, dev, pts, &e);
    report("evaluation (decompression, 2048 points)", e, spec.warp_size);
    const auto cpu_vals = evaluate_many_blocked(dev, pts);
    std::printf("  matches CPU result     %10s\n\n",
                gpu_vals == cpu_vals ? "bit-exact" : "MISMATCH");
  }

  std::printf("note: times come from the calibrated device model "
              "(DESIGN.md §5) — this host has no GPU; results are exact.\n");
  return 0;
}
