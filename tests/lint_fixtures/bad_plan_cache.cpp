// csg-lint fixture: one-plan-owner must flag the two BAD lines below. A
// caller that holds a grid looks its plan up through the shims kept for
// perfbench instead of asking the grid, which owns its plan.
#include <cstddef>

#include "csg/core/evaluation_plan.hpp"

namespace csg {

// GOOD: a comment naming EvaluationPlan::shared is not a use, and neither
// is the grid's own accessor below.
std::size_t subspaces(const RegularSparseGrid& grid) {
  return grid.plan().subspace_count();
}

std::size_t subspaces_via_shim(const RegularSparseGrid& grid) {
  EvaluationPlan::shared_cache_clear();                  // BAD: a shim call
  return EvaluationPlan::shared(grid)->subspace_count();  // BAD: a shim call
}

}  // namespace csg
