// csg-lint fixture: one-pole-sweep must flag the BAD line below. A private
// hierarchization looks each point's parents up one by one instead of
// running the pole sweep, whose recursion carries them down the pole.
#include <cstdint>
#include <vector>

namespace csg {
using index1d_t = std::uint64_t;
using level_t = std::uint32_t;

struct Parent1d {
  bool is_boundary;
  level_t level;
  index1d_t index;
};

// GOOD: a definition is not a call.
inline Parent1d left_parent_1d(level_t l, index1d_t i) {
  return {l == 0, l == 0 ? 0 : l - 1, (i - 1) / 2};
}

double private_transform(const std::vector<double>& nodal, level_t l,
                         index1d_t i) {
  const Parent1d p = left_parent_1d(l, i);  // BAD: a per-point lookup
  return p.is_boundary ? nodal[i] : nodal[i] - nodal[p.index] / 2;
}
}  // namespace csg
