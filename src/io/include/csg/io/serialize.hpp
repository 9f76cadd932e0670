// Binary serialization — the "Storage" box in the paper's Fig. 1 pipeline.
//
// Four formats share one codec (docs/FORMATS.md): magic, byte-order and
// real-width prelude, (d, n, count) header, bulk payload, and loaders that
// reject NaN/inf values. They differ in what identifies the point set:
//  * CompactStorage   "CSG1": (d, n) fully determines the layout, so the
//    payload is just N coefficients in gp2idx order — no keys on disk,
//    the same minimal footprint as in memory.
//  * BoundaryStorage  "CSB1": (d, n) again suffices (the Sec. 4.4
//    decomposition is canonical), payload in bp2idx order.
//  * AdaptiveSparseGrid "CSA1": the point set is data, so each record is
//    (levels, indices, nodal, surplus); loading restores the closure-
//    checked grid.
#pragma once

#include <iosfwd>
#include <string>

#include "csg/adaptive/adaptive_grid.hpp"
#include "csg/core/boundary_grid.hpp"
#include "csg/core/compact_storage.hpp"
#include "csg/core/truncated.hpp"

namespace csg::io {

/// Serialize to a stream. Throws std::runtime_error on stream failure.
void save(const CompactStorage& storage, std::ostream& out);

/// Deserialize from a stream. Throws std::runtime_error on malformed input
/// (bad magic, inconsistent point count, truncated payload, a NaN or
/// infinite coefficient).
CompactStorage load(std::istream& in);

/// File-path convenience wrappers.
void save_file(const CompactStorage& storage, const std::string& path);
CompactStorage load_file(const std::string& path);

/// Size in bytes the serialized form will occupy.
std::size_t serialized_bytes(const CompactStorage& storage);

/// Truncated (lossy) grid serialization, format "CSGT": header + kept
/// (index, value) pairs. The error bound rides along so a reader can
/// report the guarantee without the dense original.
void save(const TruncatedStorage& storage, std::ostream& out);
TruncatedStorage load_truncated(std::istream& in);
void save_file(const TruncatedStorage& storage, const std::string& path);
TruncatedStorage load_truncated_file(const std::string& path);

/// Boundary grid (Sec. 4.4) serialization, format "CSB1".
void save(const BoundaryStorage& storage, std::ostream& out);
BoundaryStorage load_boundary(std::istream& in);
void save_file(const BoundaryStorage& storage, const std::string& path);
BoundaryStorage load_boundary_file(const std::string& path);

/// Adaptive grid serialization, format "CSA1". Surpluses are stored, so a
/// loaded grid evaluates immediately; nodal values ride along for further
/// refinement.
void save(const adaptive::AdaptiveSparseGrid& grid, std::ostream& out);
adaptive::AdaptiveSparseGrid load_adaptive(std::istream& in);
void save_file(const adaptive::AdaptiveSparseGrid& grid,
               const std::string& path);
adaptive::AdaptiveSparseGrid load_adaptive_file(const std::string& path);

}  // namespace csg::io
