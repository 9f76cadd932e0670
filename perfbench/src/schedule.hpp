// Open-loop arrival schedules for the serve workload.
//
// Frames arrive as a Poisson process: exponential gaps with mean 1/rate,
// drawn from the benchmark seed, independent of how fast the server
// answers. Each frame is assigned to a connection uniformly at random (so
// every connection sees an independent Poisson stream), carries 1 point or,
// with probability big_share, big_points points, and targets the grids
// round-robin in arrival order.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: derives independent stream seeds from (seed, salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct FrameSpec {
  std::int64_t due_ns = 0;  ///< offset from the step's start
  std::uint32_t conn = 0;
  std::uint32_t grid = 0;
  std::uint32_t points = 1;
};

struct ScheduleParams {
  double rate_fps = 1000;   ///< mean arrivals per second, all connections
  std::size_t frames = 1000;  ///< arrivals in the schedule
  std::uint32_t connections = 2;
  std::uint32_t grids = 4;
  double big_share = 0.1;
  std::uint32_t big_points = 64;
};

std::vector<FrameSpec> poisson_schedule(std::uint64_t seed,
                                        const ScheduleParams& p);

}  // namespace perfbench
