// csg-lint fixture: one-counter-list must flag every BAD declaration below.
// In src/serve and src/net a counter is a field of a counter block, so the
// live atomic, the snapshot and the stats frame share one field list.
#include <atomic>
#include <cstdint>

namespace csg::serve {
using LiveCounter = std::atomic<std::uint64_t>;
template <typename T>
struct NetCounters {
  T frames_decoded{};
};
}  // namespace csg::serve

struct Server {
  std::atomic<std::uint64_t> frames_decoded{0};  // BAD
  std::atomic<uint64_t> bytes_in;                // BAD
  csg::serve::LiveCounter eval_points = {};      // BAD: the alias is no escape

  // GOOD: not a 64-bit counter, a counter block, and a reference.
  std::atomic<bool> running{false};
  csg::serve::NetCounters<std::atomic<std::uint64_t>> counters;
  void bump(std::atomic<std::uint64_t>& slot);
};
