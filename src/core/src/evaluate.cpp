#include "csg/core/evaluate.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>

namespace csg {

namespace {

std::atomic<std::uint64_t> g_soa_blocks{0};
std::atomic<std::uint64_t> g_soa_lanes{0};
std::atomic<std::uint64_t> g_soa_subspaces{0};

/// 2^l as an exact double (l <= kMaxLevel + 1 < 63).
real_t pow2_real(level_t l) {
  return static_cast<real_t>(flat_index_t{1} << l);
}

/// Adding and subtracting 2^52 rounds a non-negative double below 2^51 to
/// the nearest integer; the select then corrects nearest to floor. This is
/// the branch-free, SSE2-vectorizable spelling of the cell-locate truncation
/// in support_index_1d (values here are bounded by 2^kMaxLevel = 2^40).
constexpr real_t kFloorShift = 4503599627370496.0;  // 2^52

}  // namespace

SoaKernelStats soa_kernel_stats() {
  return {g_soa_blocks.load(std::memory_order_relaxed),
          g_soa_lanes.load(std::memory_order_relaxed),
          g_soa_subspaces.load(std::memory_order_relaxed)};
}

void reset_soa_kernel_stats() {
  g_soa_blocks.store(0, std::memory_order_relaxed);
  g_soa_lanes.store(0, std::memory_order_relaxed);
  g_soa_subspaces.store(0, std::memory_order_relaxed);
}

namespace {

/// Plan dimension s reads block dimension s: the interior grids' mapping.
constexpr auto kIdentityDims = [] {
  std::array<dim_t, kMaxDim> dims{};
  for (dim_t t = 0; t < kMaxDim; ++t) dims[t] = t;
  return dims;
}();

/// Table pass, once per block: every point's cell index and hat value in
/// each dimension at each level — the only d * n distinct 1-D factors of
/// Alg. 7's tensor-product basis. All values are exact small integers or
/// power-of-two-scaled coordinates, so the arithmetic rounds identically
/// to the scalar path.
void fill_tables(PointBlock& block) {
  const std::size_t padded = block.padded_size();
  for (dim_t t = 0; t < block.dim(); ++t) {
    const real_t* x = block.coords(t);
    for (level_t lv = 0; lv < block.levels(); ++lv) {
      const real_t cells = pow2_real(lv);  // 2^l: cells of this level
      const real_t h_inv = cells * 2;      // 1/h = 2^(l+1), exact
      const real_t max_cell = cells - 1;
      real_t* cell_out = block.cell_row(t, lv);
      real_t* hat_out = block.hat_row(t, lv);
      // simd-check: table pass
      // scalar fallback: subspace_contribution
#pragma omp simd
      for (std::size_t p = 0; p < padded; ++p) {
        const real_t scaled = x[p] * cells;
        real_t cell = (scaled + kFloorShift) - kFloorShift;  // nearest int
        cell = cell > scaled ? cell - 1 : cell;              // -> floor
        cell = cell < max_cell ? cell : max_cell;            // x == 1 clamp
        // Alg. 7's support test: the hat of index i = 2*cell+1 evaluated at
        // x; max(v, 0) is the branch-free boundary/support select.
        const real_t v =
            real_t{1} - std::fabs(x[p] * h_inv - (2 * cell + 1));
        cell_out[p] = cell;
        hat_out[p] = v > 0 ? v : 0;
      }
    }
  }
  g_soa_blocks.fetch_add(1, std::memory_order_relaxed);
  g_soa_lanes.fetch_add(block.lanes(), std::memory_order_relaxed);
}

/// Alg. 7's subspace walk over a block whose tables are filled: plan
/// dimension s reads block dimension dims[s]. Per subspace the fold pass,
/// then step(offset, idx, prod) — the subspace's first flat position and,
/// per point, its supporting hat's index in the subspace and value.
template <typename Step>
void walk_block(const EvaluationPlan& plan, PointBlock& block,
                std::span<const dim_t> dims, Step&& step) {
  CSG_EXPECTS(dims.size() >= plan.dim());
  CSG_EXPECTS(block.levels() == plan.level());
  const dim_t d = plan.dim();
  const level_t* levels = plan.packed_levels();
  const flat_index_t* offsets = plan.offsets();
  const std::size_t count = plan.subspace_count();
  const std::size_t padded = block.padded_size();
  real_t* prod = block.scratch_products();
  real_t* idx = block.scratch_indices();
  // Row 0 of each dimension's tables; its level-l row sits l * padded later.
  real_t* cell_rows[kMaxDim];
  real_t* hat_rows[kMaxDim];
  for (dim_t s = 0; s < d; ++s) {
    cell_rows[s] = block.cell_row(dims[s], 0);
    hat_rows[s] = block.hat_row(dims[s], 0);
  }
  for (std::size_t s = 0; s < count; ++s) {
    const level_t* l = levels + s * d;
    // Fold pass: dimension 0's table rows seed the running flat index and
    // hat product, which every later dimension folds its rows into (Horner
    // form over the per-dimension cell counts). The flat index stays below
    // 2^40 and is therefore exact in a double.
    const real_t* in_idx = cell_rows[0] + l[0] * padded;
    const real_t* in_prod = hat_rows[0] + l[0] * padded;
    for (dim_t t = 1; t < d; ++t) {
      const real_t cells = pow2_real(l[t]);
      const real_t* cell = cell_rows[t] + l[t] * padded;
      const real_t* hat = hat_rows[t] + l[t] * padded;
      // simd-check: fold pass
      // scalar fallback: subspace_contribution
#pragma omp simd
      for (std::size_t p = 0; p < padded; ++p) {
        idx[p] = in_idx[p] * cells + cell[p];
        prod[p] = in_prod[p] * hat[p];
      }
      in_idx = idx;
      in_prod = prod;
    }
    step(offsets[s], in_idx, in_prod);
  }
  g_soa_subspaces.fetch_add(count, std::memory_order_relaxed);
}

/// The calling thread's evaluation arena: every thread (OpenMP pool
/// threads, serve workers) keeps one PointBlock alive across its
/// single-point, batch, scatter, boundary and restriction calls, so a
/// steady-state stream transposes in place and performs zero point-layout
/// allocations (PointBlock::allocation_count() stays flat — bench_serve
/// gates this).
thread_local PointBlock t_arena;

}  // namespace

PointBlock& fill_basis_tables(dim_t d, level_t levels,
                              std::span<const CoordVector> points) {
  t_arena.assign(d, levels, points);
  fill_tables(t_arena);
  return t_arena;
}

void evaluate_block_tables(const EvaluationPlan& plan,
                           std::span<const real_t> coeffs, PointBlock& block,
                           std::span<const dim_t> dims) {
  CSG_EXPECTS(coeffs.size() >= plan.num_points());
  real_t* acc = block.accum();
  const std::size_t padded = block.padded_size();
  std::fill_n(acc, padded, real_t{0});
  walk_block(plan, block, dims, [&](flat_index_t offset, const real_t* idx,
                                    const real_t* prod) {
    // Gather the selected coefficient per point and accumulate. Points on a
    // grid line of this subspace carry prod == 0 and contribute exactly +-0.
    const real_t* cbase = coeffs.data() + offset;
    // scalar fallback: subspace_contribution
#pragma omp simd
    for (std::size_t p = 0; p < padded; ++p)
      acc[p] += prod[p] * cbase[static_cast<flat_index_t>(idx[p])];
  });
}

void evaluate_block_soa(const EvaluationPlan& plan,
                        std::span<const real_t> coeffs, PointBlock& block) {
  CSG_EXPECTS(block.dim() == plan.dim());
  fill_tables(block);
  evaluate_block_tables(plan, coeffs, block, kIdentityDims);
}

real_t evaluate_span(const EvaluationPlan& plan,
                     std::span<const real_t> coeffs, const CoordVector& x) {
  real_t out = 0;
  evaluate_blocked_into(plan, coeffs, std::span<const CoordVector>(&x, 1), 1,
                        std::span<real_t>(&out, 1));
  return out;
}

real_t evaluate(const CompactStorage& storage, const CoordVector& x) {
  return evaluate_span(storage.grid().plan(),
                       std::span<const real_t>(storage.data(),
                                               storage.values().size()),
                       x);
}

void evaluate_blocked_into(const EvaluationPlan& plan,
                           std::span<const real_t> coeffs,
                           std::span<const CoordVector> points,
                           std::size_t block_size, std::span<real_t> out) {
  CSG_EXPECTS(block_size >= 1);
  CSG_EXPECTS(out.size() == points.size());
  CSG_EXPECTS(coeffs.size() >= plan.num_points());
  for (std::size_t b0 = 0; b0 < points.size(); b0 += block_size) {
    const std::size_t b1 = std::min(b0 + block_size, points.size());
    PointBlock& block = fill_basis_tables(plan.dim(), plan.level(),
                                          points.subspan(b0, b1 - b0));
    evaluate_block_tables(plan, coeffs, block, kIdentityDims);
    const real_t* acc = block.accum();
    for (std::size_t p = b0; p < b1; ++p) out[p] += acc[p - b0];
  }
}

void scatter_blocked_into(const EvaluationPlan& plan,
                          std::span<const CoordVector> points,
                          std::span<const real_t> weights,
                          std::span<real_t> out) {
  CSG_EXPECTS(weights.size() == points.size());
  CSG_EXPECTS(out.size() >= plan.num_points());
  constexpr std::size_t kBlock = 64;  // evaluate_many_blocked's default
  for (std::size_t b0 = 0; b0 < points.size(); b0 += kBlock) {
    const std::size_t b1 = std::min(b0 + kBlock, points.size());
    PointBlock& block = fill_basis_tables(plan.dim(), plan.level(),
                                          points.subspan(b0, b1 - b0));
    const real_t* w = weights.data() + b0;
    walk_block(plan, block, kIdentityDims, [&](flat_index_t offset,
                                               const real_t* idx,
                                               const real_t* prod) {
      // Scalar and in point order: two points may select the same hat.
      real_t* obase = out.data() + offset;
      for (std::size_t p = 0; p < b1 - b0; ++p)
        obase[static_cast<flat_index_t>(idx[p])] += w[p] * prod[p];
    });
  }
}

std::vector<real_t> evaluate_many_blocked(const EvaluationPlan& plan,
                                          std::span<const real_t> coeffs,
                                          std::span<const CoordVector> points,
                                          std::size_t block_size) {
  std::vector<real_t> out(points.size(), 0);
  evaluate_blocked_into(plan, coeffs, points, block_size, out);
  return out;
}

std::vector<real_t> evaluate_many_blocked(const CompactStorage& storage,
                                          std::span<const CoordVector> points,
                                          std::size_t block_size) {
  return evaluate_many_blocked(
      storage.grid().plan(),
      std::span<const real_t>(storage.data(), storage.values().size()),
      points, block_size);
}

}  // namespace csg
