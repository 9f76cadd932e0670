// PointBlock: structure-of-arrays transpose of a block of evaluation points.
//
// The blocked evaluation of paper Sec. 4.3 reuses one subspace's coefficients
// across a block of points, but with an array-of-structs point layout
// (std::span<const CoordVector>) the per-point inner loop still strides
// through kMaxDim-sized tuples. PointBlock transposes a block once into d
// contiguous coordinate arrays — coords(t)[p] is dimension t of point p — so
// the SoA kernel (evaluate_block_soa) can run one subspace against a full
// lane of points with unit-stride loads (DESIGN.md §14).
//
// Arrays are padded to a multiple of kPointBlockLane points; the pad
// coordinate is 0, whose hat product is 0 in every subspace, so padded lanes
// flow through the kernel harmlessly and their accumulator slots are simply
// never read back.
//
// The block also owns the kernel's per-point scratch: the accumulator, the
// running hat product and running flat index, and the per-block 1-D basis
// tables — cell_row(t, l) and hat_row(t, l) hold, for every dimension t and
// level l < levels(), each point's cell index and hat value. A point has only
// d * levels() distinct 1-D values, so the kernel fills the tables once per
// block and every subspace reads them (2 * d * levels() * padded_size()
// doubles). One PointBlock is therefore a complete reusable evaluation
// arena: assign() only touches the heap when capacity grows, and a
// process-wide allocation counter makes "steady state performs zero
// point-layout allocations" a testable claim (bench_serve gates on it).
// fill_basis_tables (evaluate.hpp) keeps one arena per thread. Every
// evaluation entry point goes through it, single points included (one
// padded lane), and so do the boundary grid's faces, which share one
// table pass per block, and plane restriction, which reads the tables of
// its one-point anchor block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "csg/core/dim_vector.hpp"
#include "csg/core/simd.hpp"
#include "csg/core/types.hpp"

namespace csg {

class PointBlock {
 public:
  PointBlock() = default;

  /// Transpose `points` (each of dimension d, coordinates in [0,1] and not
  /// NaN) into the SoA arrays and size the basis tables for `levels` levels
  /// per dimension (a grid of level n needs levels == n), growing capacity
  /// only if this block never held a (d, levels, size) this large before.
  void assign(dim_t d, level_t levels, std::span<const CoordVector> points);

  dim_t dim() const { return dim_; }
  /// Levels per dimension covered by the basis tables.
  level_t levels() const { return levels_; }
  /// Number of live points of the current assign().
  std::size_t size() const { return size_; }
  /// size() rounded up to a multiple of kPointBlockLane (0 stays 0).
  std::size_t padded_size() const { return padded_; }
  /// Number of kPointBlockLane-wide lanes covering the padded block.
  std::size_t lanes() const { return padded_ / kPointBlockLane; }

  /// Coordinate array of dimension t: padded_size() contiguous values.
  const real_t* coords(dim_t t) const {
    CSG_EXPECTS(t < dim_);
    return storage_.data() + static_cast<std::size_t>(t) * stride_;
  }

  // Kernel scratch, owned here so the whole arena is reused together.
  // Contents are only meaningful during/after an evaluate_block_soa or
  // evaluate_block_tables call: accum()[p] is the interpolant at point p
  // for p < size().
  real_t* accum() { return scratch(0); }
  const real_t* accum() const {
    return storage_.data() + (static_cast<std::size_t>(cap_dims_) + 0) * stride_;
  }
  real_t* scratch_products() { return scratch(1); }
  real_t* scratch_indices() { return scratch(2); }

  /// Basis-table rows of dimension t at level l: padded_size() values each.
  /// cell_row holds floor(x * 2^l) clamped to the last cell, hat_row the hat
  /// value of that cell's basis function at x. The rows of one dimension are
  /// contiguous: row l starts l * padded_size() after row 0.
  real_t* cell_row(dim_t t, level_t l) { return table_row(t, l, 0); }
  real_t* hat_row(dim_t t, level_t l) { return table_row(t, l, dim_); }

  /// Heap footprint of the arena.
  std::size_t memory_bytes() const {
    return storage_.capacity() * sizeof(real_t);
  }

  /// Process-wide count of arena growth events (capacity-increasing
  /// assigns) across every PointBlock. Flat across a steady-state workload
  /// — the scratch-reuse invariant the serve bench asserts.
  static std::uint64_t allocation_count();

 private:
  real_t* scratch(std::size_t which) {
    return storage_.data() +
           (static_cast<std::size_t>(cap_dims_) + which) * stride_;
  }

  // The table rows sit behind the 3 scratch arrays, packed at the current
  // padded_size() so a one-lane block touches only d * levels() lanes:
  // cell rows first, then hat rows (`bank` selects, in units of dim_ rows).
  real_t* table_row(dim_t t, level_t l, dim_t bank) {
    CSG_EXPECTS(t < dim_ && l < levels_);
    const std::size_t row =
        (static_cast<std::size_t>(bank) + t) * levels_ + l;
    return scratch(3) + row * padded_;
  }

  std::vector<real_t> storage_;
  std::size_t stride_ = 0;  // padded point capacity per array
  dim_t cap_dims_ = 0;
  std::size_t cap_rows_ = 0;  // d * levels capacity of each table
  dim_t dim_ = 0;
  level_t levels_ = 0;
  std::size_t size_ = 0;
  std::size_t padded_ = 0;
};

}  // namespace csg
