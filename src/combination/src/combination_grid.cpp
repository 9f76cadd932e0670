#include "csg/combination/combination_grid.hpp"

#include <omp.h>

#include "csg/core/binomial_table.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/core/hierarchize.hpp"

#if defined(CSG_TSAN_GOMP_BRIDGE)
namespace csg::parallel::detail {
void tsan_gomp_bridge_anchor();
}
#endif

namespace csg::combination {

#if defined(CSG_TSAN_GOMP_BRIDGE)
// Same anchor trick as omp_algorithms.cpp: this TU's schedule(dynamic)
// loops call the GOMP_loop_nonmonotonic_dynamic_* entry points, so the
// bridge object must be in the link even when the binary never touches
// csg_parallel symbols (e.g. test_combination).
[[maybe_unused]] static void (*const force_tsan_bridge)() =
    &parallel::detail::tsan_gomp_bridge_anchor;
#endif

ComponentGrid::ComponentGrid(LevelVector level) : level_(level) {
  CSG_EXPECTS(!level.empty());
  std::size_t total = 1;
  for (dim_t t = 0; t < level.size(); ++t) {
    total *= points_in_dim(t);
    CSG_EXPECTS(total < (std::size_t{1} << 40) && "component grid too large");
  }
  values_.assign(total, real_t{0});
}

std::size_t ComponentGrid::flat(const DimVector<std::size_t>& k) const {
  CSG_ASSERT(k.size() == dim());
  std::size_t idx = 0;
  for (dim_t t = 0; t < dim(); ++t) {
    CSG_ASSERT(k[t] >= 1 && k[t] <= points_in_dim(t));
    idx = idx * points_in_dim(t) + (k[t] - 1);
  }
  return idx;
}

CoordVector ComponentGrid::coordinates(const DimVector<std::size_t>& k) const {
  CoordVector x(dim());
  for (dim_t t = 0; t < dim(); ++t)
    x[t] = static_cast<real_t>(k[t]) *
           exact_pow2(-static_cast<int>(level_[t] + 1));
  return x;
}

void ComponentGrid::sample(
    const std::function<real_t(const CoordVector&)>& f) {
  DimVector<std::size_t> k(dim(), 1);
  for (std::size_t idx = 0;; ++idx) {
    values_[idx] = f(coordinates(k));
    dim_t t = dim();
    bool done = true;
    while (t-- > 0) {
      if (++k[t] <= points_in_dim(t)) {
        done = false;
        break;
      }
      k[t] = 1;
    }
    if (done) return;
  }
}

real_t ComponentGrid::interpolate(const CoordVector& x) const {
  CSG_EXPECTS(x.size() == dim());
  // Multilinear interpolation with zero boundary: per dimension find the
  // cell and the two weights; accumulate over the 2^d corners, skipping
  // boundary corners (value 0).
  DimVector<std::size_t> base(dim());   // left grid index (0 = boundary)
  CoordVector weight_right(dim());
  for (dim_t t = 0; t < dim(); ++t) {
    const real_t scaled = x[t] * exact_pow2(static_cast<int>(level_[t] + 1));
    CSG_EXPECTS(x[t] >= 0 && x[t] <= 1);
    const auto cells = static_cast<real_t>(std::size_t{2} << level_[t]);
    const real_t clamped = std::min(scaled, cells);  // x == 1 edge
    auto cell = static_cast<std::size_t>(clamped);
    if (cell == static_cast<std::size_t>(cells)) --cell;
    base[t] = cell;  // grid point index of the left corner; 0 is boundary
    weight_right[t] = clamped - static_cast<real_t>(cell);
  }
  real_t result = 0;
  // Corner enumeration: bit c of mask selects right corner in dimension c.
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << dim()); ++mask) {
    real_t w = 1;
    DimVector<std::size_t> k(dim());
    bool on_boundary = false;
    for (dim_t t = 0; t < dim(); ++t) {
      const bool right = (mask >> t) & 1;
      w *= right ? weight_right[t] : (1 - weight_right[t]);
      const std::size_t idx = base[t] + (right ? 1 : 0);
      if (idx == 0 || idx > points_in_dim(t)) {
        on_boundary = true;  // zero-boundary corner contributes nothing
        break;
      }
      k[t] = idx;
    }
    if (!on_boundary && w != 0) result += w * at(k);
  }
  return result;
}

CombinationGrid::CombinationGrid(dim_t d, level_t n) : d_(d), n_(n) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  CSG_EXPECTS(n >= 1 && n <= kMaxLevel);
  const BinomialTable binmat(d - 1 + n);
  // Diagonals q = 0 .. min(d-1, n-1): level sum n-1-q, coefficient
  // (-1)^q C(d-1, q).
  for (level_t q = 0; q < d_ && q < n_; ++q) {
    const double coeff = (q % 2 == 0 ? 1.0 : -1.0) *
                         static_cast<double>(binmat(d - 1, q));
    for (const LevelVector& l : LevelRange(d, n - 1 - q))
      components_.push_back({ComponentGrid(l), coeff});
  }
}

std::size_t CombinationGrid::total_points() const {
  std::size_t total = 0;
  for (const WeightedComponent& c : components_) total += c.grid.num_points();
  return total;
}

std::size_t CombinationGrid::memory_bytes() const {
  std::size_t total = 0;
  for (const WeightedComponent& c : components_)
    total += c.grid.memory_bytes();
  return total;
}

void CombinationGrid::sample(
    const std::function<real_t(const CoordVector&)>& f, int num_threads) {
  CSG_EXPECTS(num_threads >= 1);
  const auto count = static_cast<std::int64_t>(components_.size());
#pragma omp parallel for schedule(dynamic) num_threads(num_threads)
  for (std::int64_t c = 0; c < count; ++c)
    components_[static_cast<std::size_t>(c)].grid.sample(f);
}

real_t CombinationGrid::evaluate(const CoordVector& x) const {
  real_t result = 0;
  for (const WeightedComponent& c : components_)
    result += static_cast<real_t>(c.coefficient) * c.grid.interpolate(x);
  return result;
}

std::vector<real_t> CombinationGrid::evaluate_many(
    std::span<const CoordVector> points, int num_threads) const {
  CSG_EXPECTS(num_threads >= 1);
  std::vector<real_t> out(points.size());
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (std::size_t p = 0; p < points.size(); ++p)
    out[p] = evaluate(points[p]);
  return out;
}

CompactStorage to_compact(const CombinationGrid& combi) {
  CompactStorage storage(combi.dim(), combi.level());
  // Every sparse grid point lies on the q=0 diagonal's component that
  // dominates its level vector; rather than search, evaluate the
  // combination at the point (exact: the combination interpolates nodal
  // values at every sparse grid point).
  storage.sample(
      [&](const CoordVector& x) { return combi.evaluate(x); });
  hierarchize(storage);
  return storage;
}

}  // namespace csg::combination
