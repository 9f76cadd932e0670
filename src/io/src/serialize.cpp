#include "csg/io/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace csg::io {

namespace {

/// One container format: the magic that opens its files, the names its
/// loader and saver errors carry, and whether the second header field is a
/// level (CSA1 reserves it: its point set is data, not a (d, n) shape).
struct Format {
  const char* magic;
  const char* loader;
  const char* saver;
  bool has_level;
};

constexpr Format kCompact{"CSG1", "csg::io::load", "csg::io::save", true};
constexpr Format kTruncated{"CSGT", "csg::io::load_truncated",
                            "csg::io::save(truncated)", true};
constexpr Format kBoundary{"CSB1", "csg::io::load_boundary",
                           "csg::io::save(boundary)", true};
constexpr Format kAdaptive{"CSA1", "csg::io::load_adaptive",
                           "csg::io::save(adaptive)", false};

/// Header prelude: this byte-order sentinel, written natively after the
/// magic, then sizeof(real_t). A file from an opposite-endian platform or a
/// real_t-retyped build fails loudly at the header, never mid-payload.
constexpr std::uint32_t kEndianTag = 0x01020304u;

/// Magic, (endian tag, real width) prelude, then u32 d, u32 n, u64 count.
constexpr std::size_t kHeaderBytes = 4 + 4 * 4 + 8;

[[noreturn]] void fail(const std::string& who, const std::string& what) {
  throw std::runtime_error(who + ": " + what);
}

template <class T>
void put_array(std::ostream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <class T>
void put(std::ostream& out, T v) {
  put_array(out, &v, 1);
}

void finish(std::ostream& out, const Format& f) {
  if (!out) fail(f.saver, "stream write failed");
}

/// One bulk read of `count` Ts; a short read fails with `truncated`.
template <class T>
void get_array(std::istream& in, const Format& f, T* data,
               std::uint64_t count, const char* truncated) {
  const std::uint64_t bytes = count * sizeof(T);
  in.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (!in || static_cast<std::uint64_t>(in.gcount()) != bytes)
    fail(f.loader, truncated);
}

/// NaN/inf in a payload would turn every evaluation on its support into
/// NaN, so loaders refuse it. v - v is 0 exactly for finite v: one
/// branch-free pass decides, and the index is located only on failure.
void check_finite(const Format& f, std::span<const real_t> v) {
  real_t acc = 0;
#pragma omp simd reduction(+ : acc)
  for (std::size_t k = 0; k < v.size(); ++k) acc += v[k] - v[k];
  if (acc == 0) return;
  const auto bad = std::find_if(v.begin(), v.end(),
                                [](real_t x) { return !std::isfinite(x); });
  fail(f.loader, "non-finite value (" + std::to_string(*bad) +
                     ") at index " + std::to_string(bad - v.begin()));
}

/// The real-payload read every format's values go through.
void get_reals(std::istream& in, const Format& f, std::span<real_t> v,
               const char* truncated) {
  get_array(in, f, v.data(), v.size(), truncated);
  check_finite(f, v);
}

template <class T>
T get(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_header(std::ostream& out, const Format& f, std::uint32_t d,
                  std::uint32_t n, std::uint64_t count) {
  out.write(f.magic, 4);
  put(out, kEndianTag);  // csg-lint: allow(one-io-codec) -- header writer
  put(out, static_cast<std::uint32_t>(sizeof(real_t)));
  put(out, d);
  put(out, n);
  put(out, count);
}

struct Header {
  dim_t d;
  level_t n;  // 0 when the format reserves the field
  std::uint64_t count;
};

Header read_header(std::istream& in, const Format& f) {
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, f.magic, sizeof(magic)) != 0)
    fail(f.loader, std::string("bad magic (not a ") + f.magic + " file)");
  const auto endian = get<std::uint32_t>(in);
  const auto width = get<std::uint32_t>(in);
  if (!in) fail(f.loader, "truncated header");
  if (endian != kEndianTag)  // csg-lint: allow(one-io-codec) -- header reader
    fail(f.loader,
         "endianness mismatch (file written with a different byte order, "
         "or a legacy header without the byte-order tag)");
  if (width != sizeof(real_t))
    fail(f.loader, "real_t width mismatch (file stores " +
                       std::to_string(width) + "-byte reals, this build uses " +
                       std::to_string(sizeof(real_t)) + "-byte reals)");
  const auto d = get<std::uint32_t>(in);
  const auto n = get<std::uint32_t>(in);
  const auto count = get<std::uint64_t>(in);
  if (!in || d < 1 || d > kMaxDim ||
      (f.has_level && (n < 1 || n > kMaxLevel)))
    fail(f.loader, "header out of range");
  return {static_cast<dim_t>(d), f.has_level ? static_cast<level_t>(n) : 0,
          count};
}

/// The header shape's point count, checked before any grid is built: a
/// shape past 64-bit flat indices fails here, not in the grid constructor.
flat_index_t header_points(const Header& h, const Format& f, bool boundary) {
  const auto points = grid_points(h.d, h.n, boundary);
  if (!points) fail(f.loader, "grid shape too large for 64-bit indices");
  return *points;
}

/// Fails with `truncated` when the stream can report its size and holds
/// fewer than `count` items of `item_bytes` past the read position, so a
/// consistent header over a short payload allocates nothing. A stream that
/// cannot seek is left to the read's own check.
void expect_payload(std::istream& in, const Format& f, std::uint64_t count,
                    std::uint64_t item_bytes, const char* truncated) {
  std::streambuf& buf = *in.rdbuf();
  const auto here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return;
  const auto end = buf.pubseekoff(0, std::ios::end, std::ios::in);
  buf.pubseekpos(here, std::ios::in);
  if (end != std::streampos(-1) &&
      static_cast<std::uint64_t>(end - here) / item_bytes < count)
    fail(f.loader, truncated);
}

/// CSG1 and CSB1: (d, n) fixes the layout, so the payload is the whole
/// coefficient array in index order, written and read in one bulk call.
template <class Storage>
void save_dense(const Storage& storage, std::ostream& out, const Format& f) {
  write_header(out, f, storage.grid().dim(), storage.grid().level(),
               storage.grid().num_points());
  put_array(out, storage.values().data(), storage.values().size());
  finish(out, f);
}

template <class Storage>
Storage load_dense(std::istream& in, const Format& f, const char* mismatch,
                   const char* truncated) {
  const Header h = read_header(in, f);
  if (header_points(h, f, std::is_same_v<Storage, BoundaryStorage>) != h.count)
    fail(f.loader, mismatch);
  expect_payload(in, f, h.count, sizeof(real_t), truncated);
  Storage storage(h.d, h.n);
  get_reals(in, f, {&storage[0], static_cast<std::size_t>(h.count)},
            truncated);
  return storage;
}

template <class T>
void save_path(const T& value, const std::string& path) {
  // csg-lint: allow-next(one-io-codec) -- the one open for write
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("csg::io::save_file", "cannot open " + path);
  save(value, out);
}

template <class Load>
auto load_path(const std::string& path, const Format& f, Load load) {
  // csg-lint: allow-next(one-io-codec) -- the one open for read
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(std::string(f.loader) + "_file", "cannot open " + path);
  return load(in);
}

}  // namespace

void save(const CompactStorage& storage, std::ostream& out) {
  save_dense(storage, out, kCompact);
}

CompactStorage load(std::istream& in) {
  return load_dense<CompactStorage>(
      in, kCompact, "point count does not match grid dimensions",
      "truncated coefficient payload");
}

void save_file(const CompactStorage& storage, const std::string& path) {
  save_path(storage, path);
}

CompactStorage load_file(const std::string& path) {
  return load_path(path, kCompact, load);
}

std::size_t serialized_bytes(const CompactStorage& storage) {
  return kHeaderBytes + storage.values().size() * sizeof(real_t);
}

void save(const TruncatedStorage& storage, std::ostream& out) {
  write_header(out, kTruncated, storage.grid().dim(), storage.grid().level(),
               storage.kept_count());
  put(out, storage.error_bound());
  put_array(out, storage.indices().data(), storage.indices().size());
  put_array(out, storage.values().data(), storage.values().size());
  finish(out, kTruncated);
}

TruncatedStorage load_truncated(std::istream& in) {
  const Header h = read_header(in, kTruncated);
  const auto bound = get<real_t>(in);
  if (!in || !std::isfinite(bound) || bound < 0)
    fail(kTruncated.loader, "header out of range");
  if (h.count > header_points(h, kTruncated, false))
    fail(kTruncated.loader, "more survivors than grid points");
  expect_payload(in, kTruncated, h.count, sizeof(flat_index_t) + sizeof(real_t),
                 "truncated payload");
  RegularSparseGrid grid(h.d, h.n);
  std::vector<flat_index_t> indices(static_cast<std::size_t>(h.count));
  std::vector<real_t> values(static_cast<std::size_t>(h.count));
  get_array(in, kTruncated, indices.data(), h.count, "truncated payload");
  get_reals(in, kTruncated, values, "truncated payload");
  for (std::size_t k = 0; k < indices.size(); ++k)
    if (indices[k] >= grid.num_points() ||
        (k > 0 && indices[k - 1] >= indices[k]))
      fail(kTruncated.loader, "corrupt index stream");
  return TruncatedStorage(std::move(grid), std::move(indices),
                          std::move(values), bound);
}

void save_file(const TruncatedStorage& storage, const std::string& path) {
  save_path(storage, path);
}

TruncatedStorage load_truncated_file(const std::string& path) {
  return load_path(path, kTruncated, load_truncated);
}

void save(const BoundaryStorage& storage, std::ostream& out) {
  save_dense(storage, out, kBoundary);
}

BoundaryStorage load_boundary(std::istream& in) {
  return load_dense<BoundaryStorage>(
      in, kBoundary, "point count does not match grid shape",
      "truncated payload");
}

void save_file(const BoundaryStorage& storage, const std::string& path) {
  save_path(storage, path);
}

BoundaryStorage load_boundary_file(const std::string& path) {
  return load_path(path, kBoundary, load_boundary);
}

void save(const adaptive::AdaptiveSparseGrid& grid, std::ostream& out) {
  write_header(out, kAdaptive, grid.dim(), 0, grid.num_points());
  grid.for_each_node([&](const adaptive::AdaptiveSparseGrid::Node& node) {
    for (dim_t t = 0; t < grid.dim(); ++t) {
      put<std::uint32_t>(out, node.point.level[t]);
      put<std::uint64_t>(out, node.point.index[t]);
    }
    put(out, node.nodal);
    put(out, node.surplus);
  });
  finish(out, kAdaptive);
}

adaptive::AdaptiveSparseGrid load_adaptive(std::istream& in) {
  const Header h = read_header(in, kAdaptive);
  // Each record is (levels, indices, nodal, surplus); the values of record
  // k land at 2k and 2k + 1, which is the index a non-finite error names.
  std::vector<GridPoint> points;
  std::vector<real_t> values;
  for (std::uint64_t k = 0; k < h.count; ++k) {
    GridPoint p;
    p.level.resize(h.d);
    p.index.resize(h.d);
    for (dim_t t = 0; t < h.d; ++t) {
      p.level[t] = get<std::uint32_t>(in);
      p.index[t] = get<std::uint64_t>(in);
    }
    real_t v[2];
    get_array(in, kAdaptive, v, 2, "truncated payload");
    if (!valid_point(p)) fail(kAdaptive.loader, "invalid grid point");
    points.push_back(std::move(p));
    values.insert(values.end(), v, v + 2);
  }
  check_finite(kAdaptive, values);
  // Insert all points first (a saved grid is closed, so this adds no
  // extras), then restore the stored values.
  adaptive::AdaptiveSparseGrid grid(h.d);
  for (const GridPoint& p : points) grid.insert(p);
  if (grid.num_points() != h.count)
    fail(kAdaptive.loader, "point set was not closed under parents");
  for (std::size_t k = 0; k < points.size(); ++k)
    grid.set_node(points[k], values[2 * k], values[2 * k + 1]);
  return grid;
}

void save_file(const adaptive::AdaptiveSparseGrid& grid,
               const std::string& path) {
  save_path(grid, path);
}

adaptive::AdaptiveSparseGrid load_adaptive_file(const std::string& path) {
  return load_path(path, kAdaptive, load_adaptive);
}

}  // namespace csg::io
