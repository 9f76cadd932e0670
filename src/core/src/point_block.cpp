#include "csg/core/point_block.hpp"

#include <algorithm>
#include <atomic>

namespace csg {

namespace {

// Relaxed is enough: the counter is a monotone tally read by benches after
// the workload quiesces, never used for synchronization.
std::atomic<std::uint64_t> g_arena_allocations{0};

}  // namespace

std::uint64_t PointBlock::allocation_count() {
  return g_arena_allocations.load(std::memory_order_relaxed);
}

void PointBlock::assign(dim_t d, level_t levels,
                        std::span<const CoordVector> points) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  CSG_EXPECTS(levels >= 1 && levels <= kMaxLevel);
  dim_ = d;
  levels_ = levels;
  size_ = points.size();
  padded_ =
      (size_ + kPointBlockLane - 1) / kPointBlockLane * kPointBlockLane;
  const std::size_t rows = static_cast<std::size_t>(d) * levels;
  if (padded_ > stride_ || d > cap_dims_ || rows > cap_rows_) {
    stride_ = std::max(padded_, stride_);
    cap_dims_ = std::max(d, cap_dims_);
    cap_rows_ = std::max(rows, cap_rows_);
    // Behind the coordinate arrays ride 3 scratch arrays (accumulator,
    // running hat product, running flat index) and the two basis tables of
    // cap_rows_ rows each (see scratch() and table_row()).
    storage_.assign(
        (static_cast<std::size_t>(cap_dims_) + 3 + 2 * cap_rows_) * stride_,
        real_t{0});
    g_arena_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  real_t* base = storage_.data();
  for (std::size_t p = 0; p < size_; ++p) {
    const CoordVector& x = points[p];
    CSG_EXPECTS(x.size() == d);
    for (dim_t t = 0; t < d; ++t) {
      CSG_EXPECTS(x[t] >= 0 && x[t] <= 1);  // NaN fails too
      base[static_cast<std::size_t>(t) * stride_ + p] = x[t];
    }
  }
  // Pad the tail with coordinate 0 (hat product 0 in every subspace).
  for (dim_t t = 0; t < d; ++t)
    for (std::size_t p = size_; p < padded_; ++p)
      base[static_cast<std::size_t>(t) * stride_ + p] = 0;
}

}  // namespace csg
