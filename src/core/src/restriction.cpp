#include "csg/core/restriction.hpp"

#include "csg/core/evaluate.hpp"

namespace csg {

CompactStorage restrict_to_plane(const CompactStorage& storage,
                                 const DimVector<dim_t>& kept_dims,
                                 const CoordVector& anchor) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  const dim_t k = kept_dims.size();
  CSG_EXPECTS(k >= 1 && k < d);
  CSG_EXPECTS(anchor.size() == d - k);
  for (dim_t s = 0; s + 1 < k; ++s)
    CSG_EXPECTS(kept_dims[s] < kept_dims[s + 1]);
  CSG_EXPECTS(kept_dims[k - 1] < d);
  for (const real_t a : anchor) CSG_EXPECTS(a >= 0 && a <= 1);

  CompactStorage out(k, grid.level());
  // The dropped dimensions' 1-D basis at the anchor: a one-point block.
  PointBlock& block = fill_basis_tables(
      d - k, grid.level(), std::span<const CoordVector>(&anchor, 1));
  const EvaluationPlan& plan = grid.plan();
  LevelVector lk(k);
  for (std::size_t s = 0; s < plan.subspace_count(); ++s) {
    const level_t* l = plan.packed_levels() + s * d;
    // Per subspace one hat per dropped dimension holds the anchor: its
    // weight, and its cell as a fixed bit field of the Horner flat index.
    // The kept dimensions' bit fields form kept_bits.
    real_t w = 1;
    flat_index_t fixed = 0, kept_bits = 0;
    for (dim_t t = 0, ks = 0; t < d; ++t) {
      fixed <<= l[t];
      kept_bits <<= l[t];
      if (ks < k && kept_dims[ks] == t) {
        lk[ks++] = l[t];
        kept_bits |= (flat_index_t{1} << l[t]) - 1;
      } else {
        w *= block.hat_row(t - ks, l[t])[0];
        fixed |= static_cast<flat_index_t>(block.cell_row(t - ks, l[t])[0]);
      }
    }
    if (w == 0) continue;  // the anchor is on a grid line of this subspace
    // The supported slab, one point per kept index: both flat orders are
    // Horner with the dimensions ascending, so enumerating the subsets of
    // kept_bits ascending visits the kept subspace's points in its order.
    const real_t* src = storage.data() + plan.offsets()[s] + fixed;
    real_t* dst = out.data() + out.grid().subspace_offset(lk);
    flat_index_t sub = 0;
    do {
      *dst++ += w * src[sub];
      sub = (sub - kept_bits) & kept_bits;
    } while (sub != 0);
  }
  return out;
}

CoordVector embed_in_plane(dim_t full_dim, const DimVector<dim_t>& kept_dims,
                           const CoordVector& anchor, const CoordVector& x) {
  CSG_EXPECTS(x.size() == kept_dims.size());
  CSG_EXPECTS(anchor.size() == full_dim - kept_dims.size());
  CoordVector full(full_dim);
  dim_t ks = 0, ds = 0;
  for (dim_t t = 0; t < full_dim; ++t) {
    if (ks < kept_dims.size() && kept_dims[ks] == t)
      full[t] = x[ks++];
    else
      full[t] = anchor[ds++];
  }
  return full;
}

}  // namespace csg
