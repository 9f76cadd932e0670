#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {
std::size_t rank_of(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const std::size_t k = rank_of(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 0;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.count = v.size();
  s.p50 = median(v);
  s.tail_pct = tail_percentile(v.size());
  s.tail = s.tail_pct > 0 ? percentile(v, s.tail_pct) : s.p50;
  return s;
}

}  // namespace perfbench
