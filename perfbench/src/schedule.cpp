#include "schedule.hpp"

#include <cmath>
#include <cstddef>
#include <random>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<FrameSpec> poisson_schedule(std::uint64_t seed,
                                        const ScheduleParams& p) {
  std::mt19937_64 rng(mix_seed(seed, 0x5c4ed));
  std::exponential_distribution<double> gap(p.rate_fps);
  std::uniform_int_distribution<std::uint32_t> conn(0, p.connections - 1);
  std::bernoulli_distribution big(p.big_share);

  std::vector<FrameSpec> frames;
  frames.reserve(p.frames);
  double t = 0;
  for (std::size_t k = 0; k < p.frames; ++k) {
    t += gap(rng) * 1e9;
    FrameSpec f;
    f.due_ns = static_cast<std::int64_t>(std::llround(t));
    f.conn = conn(rng);
    f.grid = k % p.grids;
    f.points = big(rng) ? p.big_points : 1;
    frames.push_back(f);
  }
  return frames;
}

}  // namespace perfbench
