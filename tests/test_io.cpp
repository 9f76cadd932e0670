#include "csg/io/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "csg/adaptive/adaptive_grid.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"

namespace csg::io {
namespace {

CompactStorage make_storage() {
  CompactStorage s(3, 5);
  s.sample(workloads::simulation_field(3).f);
  hierarchize(s);
  return s;
}

TEST(Serialize, StreamRoundTripIsExact) {
  const CompactStorage original = make_storage();
  std::stringstream buffer;
  save(original, buffer);
  const CompactStorage restored = load(buffer);
  EXPECT_EQ(restored.grid().dim(), original.grid().dim());
  EXPECT_EQ(restored.grid().level(), original.grid().level());
  EXPECT_EQ(restored.values(), original.values());
}

TEST(Serialize, SerializedBytesMatchesActualSize) {
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  save(s, buffer);
  EXPECT_EQ(buffer.str().size(), serialized_bytes(s));
}

TEST(Serialize, FormatIsHeaderPlusRawCoefficients) {
  const CompactStorage s = make_storage();
  // 4 magic + 4 endian tag + 4 real width + 4 + 4 + 8 header bytes +
  // N doubles: the on-disk footprint stays as compact as the in-memory one
  // (no keys).
  EXPECT_EQ(serialized_bytes(s),
            28u + s.values().size() * sizeof(real_t));
}

TEST(Serialize, FileRoundTrip) {
  const CompactStorage original = make_storage();
  const std::string path = "/tmp/csg_test_roundtrip.csg";
  save_file(original, path);
  const CompactStorage restored = load_file(path);
  EXPECT_EQ(restored.values(), original.values());
  std::filesystem::remove(path);
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOPE garbage follows";
  EXPECT_THROW(load(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedPayloadRejected) {
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  save(s, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load(cut), std::runtime_error);
}

TEST(Serialize, CorruptedHeaderRejected) {
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  save(s, buffer);
  std::string bytes = buffer.str();
  bytes[12] = char(0xFF);  // absurd dimension
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load(corrupted), std::runtime_error);
}

TEST(Serialize, InconsistentPointCountRejected) {
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  save(s, buffer);
  std::string bytes = buffer.str();
  bytes[20] = char(bytes[20] + 1);  // tamper with the stored N
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load(corrupted), std::runtime_error);
}

TEST(Serialize, WrongEndiannessRejected) {
  // Byte-swap the endianness tag, as a big-endian writer would produce:
  // the loader must refuse instead of silently loading scrambled reals.
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  save(s, buffer);
  std::string bytes = buffer.str();
  std::swap(bytes[4], bytes[7]);
  std::swap(bytes[5], bytes[6]);
  std::stringstream foreign(bytes);
  try {
    load(foreign);
    FAIL() << "wrong-endianness header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("endianness"), std::string::npos);
  }
}

TEST(Serialize, WrongRealWidthRejected) {
  // Pretend the file stores 4-byte reals (a float-retyped build): reject
  // with a descriptive error rather than misreading the payload.
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  save(s, buffer);
  std::string bytes = buffer.str();
  bytes[8] = 4;
  std::stringstream narrow(bytes);
  try {
    load(narrow);
    FAIL() << "wrong-width header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("width"), std::string::npos);
  }
}

TEST(Serialize, LegacyPreludeFreeHeaderFailsLoudly) {
  // A file in the old layout (magic, d, n, N, payload — no endian tag, no
  // real width) must be rejected at the header, never half-loaded.
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  buffer.write("CSG1", 4);
  const std::uint32_t d = 3, n = 5;
  const std::uint64_t count = s.grid().num_points();
  buffer.write(reinterpret_cast<const char*>(&d), 4);
  buffer.write(reinterpret_cast<const char*>(&n), 4);
  buffer.write(reinterpret_cast<const char*>(&count), 8);
  buffer.write(reinterpret_cast<const char*>(s.data()),
               static_cast<std::streamsize>(count * sizeof(real_t)));
  EXPECT_THROW(load(buffer), std::runtime_error);
}

TEST(Serialize, AllFormatsRejectForeignEndianness) {
  // The prelude is shared: flip the tag in each format's header.
  auto swapped_tag = [](std::string bytes) {
    std::swap(bytes[4], bytes[7]);
    std::swap(bytes[5], bytes[6]);
    return bytes;
  };
  std::stringstream csgt_buf;
  save(TruncatedStorage(make_storage(), 1e-4), csgt_buf);
  std::stringstream csgt(swapped_tag(csgt_buf.str()));
  EXPECT_THROW(load_truncated(csgt), std::runtime_error);

  BoundaryStorage b(2, 3);
  std::stringstream csb_buf;
  save(b, csb_buf);
  std::stringstream csb(swapped_tag(csb_buf.str()));
  EXPECT_THROW(load_boundary(csb), std::runtime_error);

  adaptive::AdaptiveSparseGrid a(2, 2);
  std::stringstream csa_buf;
  save(a, csa_buf);
  std::stringstream csa(swapped_tag(csa_buf.str()));
  EXPECT_THROW(load_adaptive(csa), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_file("/tmp/does_not_exist_csg_42.csg"),
               std::runtime_error);
}

TEST(SerializeTruncated, RoundTripPreservesEverything) {
  const CompactStorage dense = make_storage();
  const TruncatedStorage original(dense, 1e-4);
  std::stringstream buffer;
  save(original, buffer);
  const TruncatedStorage restored = load_truncated(buffer);
  EXPECT_EQ(restored.kept_count(), original.kept_count());
  EXPECT_EQ(restored.error_bound(), original.error_bound());
  EXPECT_EQ(restored.indices(), original.indices());
  EXPECT_EQ(restored.values(), original.values());
  const CompactStorage restored_dense = restored.densify();
  const CompactStorage original_dense = original.densify();
  for (const CoordVector& x : workloads::uniform_points(3, 50, 6))
    EXPECT_EQ(evaluate(restored_dense, x), evaluate(original_dense, x));
}

TEST(SerializeTruncated, CorruptIndexStreamRejected) {
  const TruncatedStorage original(make_storage(), 1e-4);
  std::stringstream buffer;
  save(original, buffer);
  std::string bytes = buffer.str();
  // Break monotonicity of the first two stored indices (header: magic 4,
  // endian 4, width 4, u32 d 4, u32 n 4, u64 kept 8, real bound 8 = 36
  // bytes).
  bytes[36] = char(0xFF);
  bytes[37] = char(0xFF);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_truncated(corrupted), std::runtime_error);
}

TEST(SerializeTruncated, WrongMagicRejected) {
  const CompactStorage dense = make_storage();
  std::stringstream buffer;
  save(dense, buffer);
  EXPECT_THROW(load_truncated(buffer), std::runtime_error);
}

TEST(SerializeBoundary, StreamRoundTripIsExact) {
  BoundaryStorage original(3, 4);
  original.sample(workloads::boundary_polynomial(3).f);
  hierarchize(original);
  std::stringstream buffer;
  save(original, buffer);
  const BoundaryStorage restored = load_boundary(buffer);
  EXPECT_EQ(restored.grid().dim(), 3u);
  EXPECT_EQ(restored.values(), original.values());
}

TEST(SerializeBoundary, FileRoundTripEvaluates) {
  BoundaryStorage original(2, 4);
  original.sample(workloads::boundary_polynomial(2).f);
  hierarchize(original);
  const std::string path = "/tmp/csg_test_boundary.csb";
  save_file(original, path);
  const BoundaryStorage restored = load_boundary_file(path);
  for (const CoordVector& x : workloads::uniform_points(2, 50, 3))
    EXPECT_EQ(evaluate(restored, x), evaluate(original, x));
  std::filesystem::remove(path);
}

TEST(SerializeBoundary, WrongMagicRejected) {
  // A compact-format blob must not load as a boundary grid and vice versa.
  const CompactStorage s = make_storage();
  std::stringstream buffer;
  save(s, buffer);
  EXPECT_THROW(load_boundary(buffer), std::runtime_error);

  BoundaryStorage b(2, 3);
  std::stringstream buffer2;
  save(b, buffer2);
  EXPECT_THROW(load(buffer2), std::runtime_error);
}

TEST(SerializeAdaptive, RoundTripPreservesPointSetAndValues) {
  adaptive::AdaptiveSparseGrid original(3, 3);
  original.insert({{3, 1, 0}, {9, 3, 1}});  // make it non-regular
  original.sample(workloads::gaussian_bump(3).f);
  original.hierarchize();

  std::stringstream buffer;
  save(original, buffer);
  adaptive::AdaptiveSparseGrid restored = load_adaptive(buffer);
  EXPECT_EQ(restored.num_points(), original.num_points());
  original.for_each_node([&](const adaptive::AdaptiveSparseGrid::Node& node) {
    ASSERT_TRUE(restored.contains(node.point.level, node.point.index));
  });
  for (const CoordVector& x : workloads::uniform_points(3, 60, 9))
    EXPECT_EQ(restored.evaluate(x), original.evaluate(x));
}

TEST(SerializeAdaptive, FileRoundTrip) {
  adaptive::AdaptiveSparseGrid original(2, 4);
  original.sample(workloads::parabola_product(2).f);
  original.hierarchize();
  const std::string path = "/tmp/csg_test_adaptive.csa";
  save_file(original, path);
  adaptive::AdaptiveSparseGrid restored = load_adaptive_file(path);
  EXPECT_EQ(restored.num_points(), original.num_points());
  std::filesystem::remove(path);
}

TEST(SerializeAdaptive, TruncationRejected) {
  adaptive::AdaptiveSparseGrid g(2, 3);
  std::stringstream buffer;
  save(g, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() - 7));
  EXPECT_THROW(load_adaptive(cut), std::runtime_error);
}

TEST(SerializeAdaptive, CorruptPointRejected) {
  adaptive::AdaptiveSparseGrid g(2, 2);
  std::stringstream buffer;
  save(g, buffer);
  std::string bytes = buffer.str();
  // First record starts after the 28-byte header; make its index even.
  bytes[28 + 4] = 2;
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_adaptive(corrupted), std::runtime_error);
}

// Golden files written before the four loaders were folded into one codec:
// each must load and re-save to the identical bytes, which pins the on-disk
// layout of every format.
std::string read_bytes(const std::string& name) {
  std::ifstream in(std::string(CSG_IO_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

template <class Load>
std::string resave(const std::string& golden, Load load) {
  std::stringstream in(golden);
  std::stringstream out;
  save(load(in), out);
  return out.str();
}

template <class Load>
void expect_resaves_identically(const std::string& name, Load load) {
  const std::string golden = read_bytes(name);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(resave(golden, load), golden) << name;
}

TEST(SerializeGolden, DenseAndTruncatedResaveByteIdentically) {
  expect_resaves_identically("compact_d2_n3.csg", load);
  expect_resaves_identically("truncated_d3_n3.csgt", load_truncated);
  expect_resaves_identically("boundary_d2_n2.csb", load_boundary);
}

TEST(SerializeGolden, AdaptiveResavesTheSameRecords) {
  // CSA1 writes records in the grid's node iteration order, which a reload
  // need not reproduce: the header must match byte for byte and the
  // 40-byte (2 x (u32 level, u64 index), nodal, surplus) records as a set.
  const std::string golden = read_bytes("adaptive_d2_n2.csa");
  const std::string bytes = resave(golden, load_adaptive);
  ASSERT_EQ(bytes.size(), golden.size());
  EXPECT_EQ(bytes.substr(0, 28), golden.substr(0, 28));
  auto records = [](const std::string& b) {
    std::vector<std::string> out;
    for (std::size_t at = 28; at < b.size(); at += 40)
      out.push_back(b.substr(at, 40));
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(records(bytes), records(golden));
}

TEST(SerializeGolden, CompactFixtureMatchesSerializedBytes) {
  const std::string golden = read_bytes("compact_d2_n3.csg");
  std::stringstream in(golden);
  EXPECT_EQ(serialized_bytes(load(in)), golden.size());
}

// Every loader refuses NaN/inf payload values with an error naming the
// loader and the index of the first bad value.
std::string with_real_at(std::string bytes, std::size_t offset, real_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
  return bytes;
}

template <class Load>
void expect_non_finite(const std::string& bytes, Load load,
                       const std::string& loader, std::size_t index) {
  std::stringstream in(bytes);
  try {
    load(in);
    FAIL() << loader << " accepted a non-finite value";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(loader + ": non-finite value", 0), 0u) << what;
    EXPECT_NE(what.find("at index " + std::to_string(index)),
              std::string::npos)
        << what;
  }
}

constexpr real_t kNaN = std::numeric_limits<real_t>::quiet_NaN();
constexpr real_t kInf = std::numeric_limits<real_t>::infinity();

TEST(SerializeNonFinite, CompactCoefficientRejected) {
  std::stringstream buffer;
  save(make_storage(), buffer);
  expect_non_finite(with_real_at(buffer.str(), 28 + 8 * 5, kNaN), load,
                    "csg::io::load", 5);
}

TEST(SerializeNonFinite, TruncatedValueRejected) {
  const TruncatedStorage t(make_storage(), 1e-4);
  ASSERT_GT(t.kept_count(), 3u);
  std::stringstream buffer;
  save(t, buffer);
  // Header 36 bytes, then kept indices, then kept values.
  const std::size_t values_at = 36 + 8 * t.kept_count();
  expect_non_finite(with_real_at(buffer.str(), values_at + 8 * 3, kInf),
                    load_truncated, "csg::io::load_truncated", 3);
}

TEST(SerializeNonFinite, TruncatedErrorBoundRejected) {
  std::stringstream buffer;
  save(TruncatedStorage(make_storage(), 1e-4), buffer);
  for (const real_t bound : {kNaN, kInf}) {
    std::stringstream in(with_real_at(buffer.str(), 28, bound));
    EXPECT_THROW(load_truncated(in), std::runtime_error);
  }
}

TEST(SerializeNonFinite, BoundaryValueRejected) {
  BoundaryStorage b(2, 3);
  b.sample(workloads::boundary_polynomial(2).f);
  std::stringstream buffer;
  save(b, buffer);
  expect_non_finite(with_real_at(buffer.str(), 28 + 8 * 7, -kInf),
                    load_boundary, "csg::io::load_boundary", 7);
}

TEST(SerializeNonFinite, AdaptiveNodalAndSurplusRejected) {
  adaptive::AdaptiveSparseGrid g(2, 2);
  g.sample(workloads::gaussian_bump(2).f);
  g.hierarchize();
  std::stringstream buffer;
  save(g, buffer);
  // Records of (2 x u32 level + u64 index, nodal, surplus) = 40 bytes after
  // the 28-byte header; record k's values are indices 2k and 2k + 1.
  const std::size_t record = 2 * (4 + 8) + 2 * 8;
  const std::size_t nodal1 = 28 + record + 2 * (4 + 8);
  expect_non_finite(with_real_at(buffer.str(), nodal1, kNaN), load_adaptive,
                    "csg::io::load_adaptive", 2);
  expect_non_finite(with_real_at(buffer.str(), nodal1 + 8, kInf),
                    load_adaptive, "csg::io::load_adaptive", 3);
}

/// A saved file with its header's (d, n) overwritten (u32s at bytes 12 and
/// 16); the count and the payload keep the small grid's values.
std::string with_shape(std::string bytes, std::uint32_t d, std::uint32_t n) {
  std::memcpy(bytes.data() + 12, &d, sizeof(d));
  std::memcpy(bytes.data() + 16, &n, sizeof(n));
  return bytes;
}

/// The load must fail with `loader`'s csg::io error naming `what`: not
/// abort in a grid constructor, and not throw std::bad_alloc (which is no
/// std::runtime_error) from a coefficient array allocated first.
template <class Load>
void expect_shape_error(const std::string& bytes, Load load,
                        const std::string& loader, const std::string& what) {
  std::stringstream in(bytes);
  try {
    load(in);
    FAIL() << loader << " accepted a corrupt shape";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), loader + ": " + what);
  }
}

TEST(SerializeCorruptShape, CompactHeaderFailsBeforeAllocating) {
  std::stringstream buffer;
  save(CompactStorage(1, 1), buffer);  // 36 bytes: header + one double
  ASSERT_EQ(buffer.str().size(), 36u);
  expect_shape_error(with_shape(buffer.str(), 16, 40), load, "csg::io::load",
                     "grid shape too large for 64-bit indices");
  // 1.3e15 points, about 11 PB of coefficients.
  expect_shape_error(with_shape(buffer.str(), 16, 20), load, "csg::io::load",
                     "point count does not match grid dimensions");
}

TEST(SerializeCorruptShape, BoundaryHeaderFailsBeforeAllocating) {
  std::stringstream buffer;
  save(BoundaryStorage(1, 1), buffer);
  for (const std::uint32_t n : {40u, 20u})
    expect_shape_error(with_shape(buffer.str(), 16, n), load_boundary,
                       "csg::io::load_boundary",
                       "grid shape too large for 64-bit indices");
  expect_shape_error(with_shape(buffer.str(), 2, 3), load_boundary,
                     "csg::io::load_boundary",
                     "point count does not match grid shape");
}

TEST(SerializeCorruptShape, TruncatedHeaderFailsBeforeBuildingTheGrid) {
  std::stringstream buffer;
  save(TruncatedStorage(make_storage(), 1e-4), buffer);
  expect_shape_error(with_shape(buffer.str(), 16, 40), load_truncated,
                     "csg::io::load_truncated",
                     "grid shape too large for 64-bit indices");
}

TEST(SerializeCorruptShape, ShortPayloadFailsBeforeAllocating) {
  // A consistent header (shape and its true count) over the small grid's
  // payload: the loaders compare the bytes the header implies with the
  // bytes left before allocating, and fail as truncated instead of
  // allocating (here: throwing std::bad_alloc for) petabytes.
  const auto with_count = [](const std::string& bytes, std::uint32_t d,
                             std::uint32_t n, std::uint64_t count) {
    return with_shape(bytes, d, n).replace(
        20, sizeof(count), reinterpret_cast<const char*>(&count),
        sizeof(count));
  };
  std::stringstream compact, boundary, truncated;
  save(CompactStorage(1, 1), compact);  // 36 bytes: header + one double
  const flat_index_t points = *grid_points(16, 20);  // 1.3e15 points
  expect_shape_error(with_count(compact.str(), 16, 20, points), load,
                     "csg::io::load", "truncated coefficient payload");
  save(BoundaryStorage(1, 1), boundary);
  const flat_index_t boundary_points = *grid_points(12, 12, true);
  ASSERT_GT(boundary_points, flat_index_t{1} << 40);
  expect_shape_error(with_count(boundary.str(), 12, 12, boundary_points),
                     load_boundary, "csg::io::load_boundary",
                     "truncated payload");
  save(TruncatedStorage(make_storage(), 1e-4), truncated);
  expect_shape_error(with_count(truncated.str(), 16, 20, points),
                     load_truncated, "csg::io::load_truncated",
                     "truncated payload");
}

TEST(Serialize, EmptyGridSerializes) {
  CompactStorage tiny(2, 1);  // one point
  tiny[0] = 7.5;
  std::stringstream buffer;
  save(tiny, buffer);
  const CompactStorage restored = load(buffer);
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0], 7.5);
}

}  // namespace
}  // namespace csg::io
