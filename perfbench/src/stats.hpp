// Sample statistics for the benchmark: nearest-rank percentiles and the
// reporting rule "median plus the highest percentile that has at least ten
// samples beyond it".
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile p in (0, 100] of `v` (need not be sorted):
/// the value at 1-based rank ceil(p/100 * n). Empty input gives 0.
double percentile(std::vector<double> v, double p);

double median(const std::vector<double>& v);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 99.9, 99, 95, 90, 75, 50 that leaves at least ten
/// samples beyond it, or 0 when even the median does not (n < 20).
double tail_percentile(std::size_t n);

struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double tail_pct = 0;  ///< tail_percentile(count); 0 = no valid tail
  double tail = 0;      ///< value at tail_pct (the median when none)
};

Summary summarize(const std::vector<double>& v);

}  // namespace perfbench
