#include "csg/core/truncated.hpp"

#include <algorithm>
#include <cmath>

namespace csg {

TruncatedStorage::TruncatedStorage(const CompactStorage& source,
                                   real_t epsilon)
    : grid_(source.grid()) {
  CSG_EXPECTS(epsilon >= 0);
  // One pass in flat (subspace-contiguous) order: collect survivors and
  // accumulate the per-subspace maximum dropped surplus for the bound.
  for (level_t j = 0; j < grid_.level(); ++j) {
    const flat_index_t span = grid_.points_per_subspace(j);
    flat_index_t pos = grid_.group_offset(j);
    const flat_index_t group_end = grid_.group_offset(j + 1);
    while (pos < group_end) {
      real_t max_dropped = 0;
      for (flat_index_t k = 0; k < span; ++k, ++pos) {
        const real_t v = source[pos];
        if (std::abs(v) > epsilon) {
          indices_.push_back(pos);
          values_.push_back(v);
        } else {
          max_dropped = std::max(max_dropped, std::abs(v));
        }
      }
      error_bound_ += max_dropped;
    }
  }
}

TruncatedStorage::TruncatedStorage(RegularSparseGrid grid,
                                   std::vector<flat_index_t> indices,
                                   std::vector<real_t> values,
                                   real_t error_bound)
    : grid_(std::move(grid)), indices_(std::move(indices)),
      values_(std::move(values)), error_bound_(error_bound) {
  CSG_EXPECTS(indices_.size() == values_.size());
  CSG_EXPECTS(error_bound >= 0);
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    CSG_EXPECTS(indices_[k] < grid_.num_points());
    CSG_EXPECTS(k == 0 || indices_[k - 1] < indices_[k]);
  }
}

CompactStorage TruncatedStorage::densify() const {
  CompactStorage out(grid_);
  for (std::size_t k = 0; k < indices_.size(); ++k)
    out[indices_[k]] = values_[k];
  return out;
}

}  // namespace csg
