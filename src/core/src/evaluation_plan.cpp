#include "csg/core/evaluation_plan.hpp"

#include "csg/core/level_enumeration.hpp"

namespace csg {

EvaluationPlan::EvaluationPlan(const RegularSparseGrid& grid)
    : d_(grid.dim()), n_(grid.level()), num_points_(grid.num_points()) {
  std::size_t total_subspaces = 0;
  for (level_t j = 0; j < n_; ++j)
    total_subspaces += static_cast<std::size_t>(grid.subspaces_in_group(j));
  levels_.reserve(total_subspaces * d_);
  offsets_.reserve(total_subspaces);

  // Same walk evaluate_span used to do per query point, executed once:
  // level groups ascending, within a group the Alg. 3 order, the base
  // offset advancing by 2^j per subspace.
  flat_index_t base = 0;
  for (level_t j = 0; j < n_; ++j) {
    LevelVector l = first_level(d_, j);
    const std::uint64_t subspaces = grid.subspaces_in_group(j);
    const flat_index_t span = grid.points_per_subspace(j);
    for (std::uint64_t k = 0; k < subspaces; ++k) {
      levels_.insert(levels_.end(), l.begin(), l.end());
      offsets_.push_back(base);
      base += span;
      if (k + 1 < subspaces) advance_level(l);
    }
  }
  CSG_ENSURES(base == num_points_);
  CSG_ENSURES(offsets_.size() == total_subspaces);
}

const EvaluationPlan& RegularSparseGrid::plan() const {
  std::call_once(plan_->built, [this] {
    plan_->plan = std::make_shared<const EvaluationPlan>(*this);
  });
  return *plan_->plan;
}

std::shared_ptr<const EvaluationPlan> EvaluationPlan::shared(
    const RegularSparseGrid& grid) {
  (void)grid.plan();
  return grid.plan_->plan;
}

void EvaluationPlan::shared_cache_clear() {}

}  // namespace csg
