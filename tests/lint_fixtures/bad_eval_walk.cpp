// csg-lint fixture: one-eval-walk must flag both BAD lines below. A private
// Alg. 7 walk locates each point's cell and hat itself instead of running
// the SoA kernel through evaluate_blocked_into / scatter_blocked_into or
// reading the tables of fill_basis_tables.
#include <cmath>
#include <cstdint>
#include <vector>

namespace csg {
using index1d_t = std::uint64_t;
using level_t = std::uint32_t;
using real_t = double;

// GOOD: a definition is not a call.
inline index1d_t support_index_1d(level_t l, double x) {
  return 2 * static_cast<index1d_t>(x * static_cast<double>(std::uint64_t{1} << l)) + 1;
}

// GOOD: a definition is not a call.
inline real_t hat_basis_1d(level_t l, index1d_t i, real_t x) {
  const real_t v = 1 - std::fabs(x * static_cast<real_t>(std::uint64_t{2} << l) -
                                 static_cast<real_t>(i));
  return v > 0 ? v : 0;
}

real_t private_weight(level_t l, index1d_t i, real_t anchor) {
  return hat_basis_1d(l, i, anchor);  // BAD: a private hat evaluation
}

double private_walk(const std::vector<double>& coeffs, level_t n, double x) {
  double res = 0;
  std::uint64_t offset = 0;
  for (level_t l = 0; l < n; ++l) {
    const index1d_t i = support_index_1d(l, x);  // BAD: a private walk
    res += coeffs[offset + (i - 1) / 2];
    offset += std::uint64_t{1} << l;
  }
  return res;
}
}  // namespace csg
