// Serving counters, each declared once.
//
// A counter block is a template over its cell type: the live block is
// Block<LiveCounter> (relaxed atomic increments on the hot path), the
// snapshot is Block<std::uint64_t>. The static fields(f, blocks...) visitor
// calls f("name", block.member...) for every counter in declaration order,
// passing the same member of each block, so snapshots, the wire stats frame
// and every printed report are derived from the one field list.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace csg::serve {

using LiveCounter = std::atomic<std::uint64_t>;

/// Service-wide outcome and batching counters.
template <typename T>
struct ServiceCounters {
  T submitted{};
  T completed{};  ///< evaluated and delivered kOk
  T rejected{};   ///< queue-full rejections + post-stop submits
  T timed_out{};
  /// Subset of timed_out: requests whose deadline had already expired when
  /// submit() ran, rejected before ever entering the queue (admission
  /// control: dead work is shed at the door, not carried to a batch).
  T shed_at_admission{};
  T cancelled{};
  T not_found{};
  T invalid{};
  T batches_formed{};  ///< batches with >= 1 evaluated point
  T batched_points{};  ///< points evaluated through batches
  T max_batch{};       ///< largest batch evaluated

  template <typename F, typename... B>
  static void fields(F&& f, B&... b) {
    f("submitted", b.submitted...);
    f("completed", b.completed...);
    f("rejected", b.rejected...);
    f("timed_out", b.timed_out...);
    f("shed_at_admission", b.shed_at_admission...);
    f("cancelled", b.cancelled...);
    f("not_found", b.not_found...);
    f("invalid", b.invalid...);
    f("batches_formed", b.batches_formed...);
    f("batched_points", b.batched_points...);
    f("max_batch", b.max_batch...);
  }
};

/// Counters of one EvalService shard.
template <typename T>
struct ShardCounters {
  T submits{};          ///< requests routed to this shard
  T rejections{};       ///< queue-full + post-stop rejections here
  T max_queue_depth{};  ///< high-water queue occupancy

  template <typename F, typename... B>
  static void fields(F&& f, B&... b) {
    f("submits", b.submits...);
    f("rejections", b.rejections...);
    f("max_queue_depth", b.max_queue_depth...);
  }
};

/// Relaxed copy of a live block into its snapshot. Each read is atomic; a
/// snapshot taken while requests are in flight may be mid-update across
/// fields.
template <template <typename> class Block>
Block<std::uint64_t> snapshot(const Block<LiveCounter>& live) {
  Block<std::uint64_t> out;
  Block<std::uint64_t>::fields(
      [](const char*, std::uint64_t& to, const LiveCounter& from) {
        to = from.load(std::memory_order_relaxed);
      },
      out, live);
  return out;
}

/// Atomic max for the high-water counters.
inline void raise_max(LiveCounter& slot, std::uint64_t candidate) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !slot.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

/// Cumulative service counters plus one ShardStats per configured shard.
struct ServiceStats : ServiceCounters<std::uint64_t> {
  using ShardStats = ShardCounters<std::uint64_t>;
  std::vector<ShardStats> shards;

  double mean_batch() const {
    return batches_formed == 0
               ? 0.0
               : static_cast<double>(batched_points) /
                     static_cast<double>(batches_formed);
  }
};

}  // namespace csg::serve
