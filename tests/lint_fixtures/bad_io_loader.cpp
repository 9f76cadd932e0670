// csg-lint fixture: one-io-codec must flag every BAD line below. A fifth
// format hand-copies the open, the prelude and the header checks instead
// of going through the shared codec in src/io/src/serialize.cpp.
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

namespace csg::io {
namespace {
constexpr std::uint32_t kEndianTag = 0x01020304u;  // GOOD: the definition

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
}  // namespace

std::uint64_t load_fifth_format_count(const std::string& path) {
  std::ifstream in(path, std::ios::binary);  // BAD: a private file open
  if (!in) throw std::runtime_error("cannot open " + path);
  if (read_u32(in) != kEndianTag)  // BAD: a hand-copied prelude check
    throw std::runtime_error("endianness mismatch");
  return read_u32(in);
}

void save_fifth_format(const std::string& path, std::uint64_t count) {
  std::ofstream out(path, std::ios::binary);  // BAD: a private file open
  const std::uint32_t tag = 0x01020304u;      // BAD: the tag by value
  out.write(reinterpret_cast<const char*>(&tag), sizeof(tag));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
}

// GOOD: a reference parameter constructs nothing.
void forward(std::ifstream& in);
}  // namespace csg::io
