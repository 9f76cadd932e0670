// Lossy compression by surplus truncation.
//
// Hierarchical coefficients ARE local error indicators: dropping every
// |alpha| <= eps leaves an interpolant whose pointwise error is bounded by
// the sum over level groups of the largest dropped surplus per subspace
// (at any x at most one basis per subspace is active, and |phi| <= 1).
// For smooth data the surpluses decay ~4x per level (Sec. 2), so most of
// the fine-level coefficients vanish and the storage shrinks far below
// the already-compact 8 bytes/point — the natural second compression
// stage for the paper's Fig. 1 storage box.
//
// The kept coefficients are stored as sorted (flat index, value) pairs —
// no hashing, no per-point keys beyond one index word. The pairs are a
// storage and transfer format: to evaluate, densify() once and run the
// dense kernel (csg/core/evaluate.hpp) on the result. Dropped coefficients
// become exact zeros, whose terms add +-0, so the values are those of the
// truncated interpolant.
#pragma once

#include <vector>

#include "csg/core/compact_storage.hpp"

namespace csg {

class TruncatedStorage {
 public:
  /// Keep only coefficients with |alpha| > epsilon.
  TruncatedStorage(const CompactStorage& source, real_t epsilon);

  /// Reassemble from previously extracted parts (deserialization).
  /// `indices` must be strictly increasing positions within `grid`.
  TruncatedStorage(RegularSparseGrid grid, std::vector<flat_index_t> indices,
                   std::vector<real_t> values, real_t error_bound);

  const RegularSparseGrid& grid() const { return grid_; }
  std::size_t kept_count() const { return indices_.size(); }
  std::size_t dropped_count() const {
    return static_cast<std::size_t>(grid_.num_points()) - kept_count();
  }

  /// Guaranteed bound on max_x |fs(x) - fs_truncated(x)|: the sum over
  /// subspaces of the largest dropped |alpha| in that subspace.
  real_t error_bound() const { return error_bound_; }

  /// Fraction of the dense compact payload still stored (pairs are 16 B
  /// vs 8 B dense, so ratios below 0.5 mean net savings).
  double payload_ratio() const {
    return static_cast<double>(memory_bytes()) /
           (static_cast<double>(grid_.num_points()) * sizeof(real_t));
  }

  std::size_t memory_bytes() const {
    return indices_.size() * (sizeof(flat_index_t) + sizeof(real_t));
  }

  /// Expand back to the dense compact representation (dropped
  /// coefficients become exact zeros).
  CompactStorage densify() const;

  const std::vector<flat_index_t>& indices() const { return indices_; }
  const std::vector<real_t>& values() const { return values_; }

 private:
  RegularSparseGrid grid_;
  std::vector<flat_index_t> indices_;  // strictly increasing
  std::vector<real_t> values_;
  real_t error_bound_ = 0;
};

}  // namespace csg
