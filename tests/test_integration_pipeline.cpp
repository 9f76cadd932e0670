// End-to-end reproduction of the paper's Fig. 1 pipeline:
//   Simulation -> Compress (hierarchize) -> Storage -> Decompress
//   (evaluate) -> Visualization.
// A synthetic "simulation" produces a full grid; the sparse grid compresses
// it; the compressed form round-trips through serialization; visualization
// slices and point queries decompress it and must approximate the original
// field.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/io/serialize.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/workloads/full_grid.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg {
namespace {

TEST(Pipeline, FullGridToSparseToVisualizationSlice) {
  const dim_t d = 3;
  const level_t n = 6;
  const auto field = workloads::simulation_field(d);

  // 1. "Simulation": a dense full grid of the field.
  workloads::FullGrid full(d, n);
  full.sample(field.f);

  // 2. Compression: restrict to sparse grid points, then hierarchize.
  CompactStorage sparse(d, n);
  const RegularSparseGrid& grid = sparse.grid();
  for (flat_index_t j = 0; j < sparse.size(); ++j)
    sparse[j] = full.value_at_sparse_point(grid.idx2gp(j));
  hierarchize(sparse);

  // The compression ratio the technique promises.
  EXPECT_GT(full.num_points(), 50 * sparse.size());

  // 3. Storage: serialize + reload.
  std::stringstream blob;
  io::save(sparse, blob);
  const CompactStorage restored = io::load(blob);

  // 4. Decompression for visualization: a 2d slice through the volume.
  const auto slice =
      workloads::slice_points(CoordVector{0.5, 0.5, 0.5}, 0, 1, 32, 32);
  const auto values = evaluate_many_blocked(restored, slice);

  // 5. The reconstructed slice approximates the original field.
  real_t max_err = 0;
  for (std::size_t p = 0; p < slice.size(); ++p)
    max_err = std::max(max_err, std::abs(values[p] - field(slice[p])));
  EXPECT_LT(max_err, 0.02);
}

TEST(Pipeline, CompressedFileIsSmallerThanFullGridDump) {
  const dim_t d = 3;
  const level_t n = 6;
  workloads::FullGrid full(d, n);
  CompactStorage sparse(d, n);
  sparse.sample(workloads::gaussian_bump(d).f);
  hierarchize(sparse);
  EXPECT_LT(io::serialized_bytes(sparse), full.memory_bytes() / 50);
}

TEST(Pipeline, ParallelAndSequentialPipelinesAgreeEndToEnd) {
  const dim_t d = 4;
  const level_t n = 5;
  const auto field = workloads::oscillatory(d);

  CompactStorage seq(d, n), par(d, n);
  seq.sample(field.f);
  par.sample(field.f);
  hierarchize(seq);
  parallel::omp_hierarchize(par, 4);

  const auto pts = workloads::halton_points(d, 500);
  const auto a = evaluate_many_blocked(seq, pts);
  const auto b = parallel::omp_evaluate_many_blocked(par, pts, 64, 4);
  for (std::size_t p = 0; p < pts.size(); ++p) EXPECT_EQ(a[p], b[p]);
}

TEST(Pipeline, InteractiveExplorationScenario) {
  // A user browses: repeated slice extractions at different anchors, as the
  // visualization front-end would issue them. All reconstructions must stay
  // within the interpolation error bound of the grid.
  const dim_t d = 4;
  const level_t n = 7;
  const auto field = workloads::parabola_product(d);
  CompactStorage sparse(d, n);
  sparse.sample(field.f);
  hierarchize(sparse);

  for (const real_t anchor : {0.25, 0.5, 0.75}) {
    const auto slice = workloads::slice_points(
        CoordVector(d, anchor), 0, d - 1, 16, 16);
    const auto values = evaluate_many_blocked(sparse, slice, 64);
    for (std::size_t p = 0; p < slice.size(); ++p)
      EXPECT_NEAR(values[p], field(slice[p]), 0.05);
  }
}

TEST(Pipeline, CompressionPreservesGridPointValuesExactly) {
  // Lossless at the grid points (interpolation, not approximation, there).
  const dim_t d = 2;
  const level_t n = 7;
  const auto field = workloads::simulation_field(d);
  CompactStorage sparse(d, n);
  sparse.sample(field.f);
  const std::vector<real_t> nodal = sparse.values();
  hierarchize(sparse);
  std::stringstream blob;
  io::save(sparse, blob);
  const CompactStorage restored = io::load(blob);
  for (flat_index_t j = 0; j < restored.size(); ++j) {
    const CoordVector x = coordinates(restored.grid().idx2gp(j));
    EXPECT_NEAR(evaluate(restored, x), nodal[static_cast<std::size_t>(j)],
                1e-12);
  }
}

}  // namespace
}  // namespace csg
