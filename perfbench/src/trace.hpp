// Span recorder for the traced benchmark run.
//
// A span is (id, parent id, name, start, end) on std::chrono::steady_clock.
// Spans are kept in memory — one append-only buffer per recording thread,
// so recording takes no lock after a thread's first span — and written out
// once, when the run ends. The benchmark wraps its own calls into each
// module's public functions (core, parallel, io, serve, net); spans inside
// the library are not recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< string literal, lives for the program
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

std::int64_t now_ns();

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id();
  void record(const SpanRecord& span);

  /// Every recorded span. Call only after all recording threads joined.
  std::vector<SpanRecord> collect() const;
  void clear();

  /// One JSON object per line: id, parent, name, start_ns, end_ns.
  bool write_jsonl(const std::string& path) const;

 private:
  using Buffer = std::vector<SpanRecord>;
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. The parent defaults to the innermost open span of the calling
/// thread; pass an explicit parent to link work handed to another thread.
/// Does nothing while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  std::uint64_t saved_current_ = 0;
  bool active_ = false;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children may overlap
/// when they ran on different threads). Keyed by span id, in nanoseconds.
std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<SpanRecord>& spans);

/// Durations (or self times) in seconds of all spans called `name`.
std::vector<double> durations_of(const std::vector<SpanRecord>& spans,
                                 const std::string& name);
std::vector<double> self_seconds_of(
    const std::vector<SpanRecord>& spans,
    const std::map<std::uint64_t, std::int64_t>& self,
    const std::string& name);

}  // namespace perfbench
