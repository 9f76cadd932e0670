#include <omp.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// Size of the highest-level cache cpu0 reports in sysfs, in bytes; 0 when
/// sysfs does not say.
std::size_t llc_bytes_from_sysfs() {
  std::size_t best_level = 0, best_bytes = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream level_in(dir + "level"), size_in(dir + "size");
    std::size_t level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best_bytes = bytes;
    }
  }
  return best_bytes;
}

}  // namespace

TriadResult measure_triad(int threads) {
  TriadResult r;
  r.llc_bytes = llc_bytes_from_sysfs();
  // Four times the LLC, and never below 256 MiB when sysfs is silent.
  const std::size_t floor_bytes = std::size_t{256} << 20;
  r.array_bytes = std::max(4 * r.llc_bytes, floor_bytes);
  const std::size_t n = r.array_bytes / sizeof(double);

  // Raw arrays: first touch happens in the parallel init loop, so pages land
  // with the threads that use them.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) {
    pa[i] = 0;
    pb[i] = 1;
    pc[i] = 2;
  }
  const double s = 3;
  double best = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = now_ns();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    best = std::min(best, static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (pa[n / 2] != 7) return r;  // gbps stays 0: the caller reports failure
  r.gbps = 3.0 * static_cast<double>(n) * sizeof(double) / best * 1e-9;
  return r;
}

}  // namespace perfbench
