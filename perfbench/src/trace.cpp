#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {
thread_local std::uint64_t tl_current = 0;
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Buffer& Tracer::local_buffer() {
  // One buffer per (thread, tracer); the tracer owns it, so it outlives the
  // thread and collect() can read it after the thread has been joined.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->reserve(1024);
  }
  return *buffer;
}

void Tracer::record(const SpanRecord& span) { local_buffer().push_back(span); }

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& b : buffers_) b->clear();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : collect())
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name) : Span(name, tl_current) {}

Span::Span(const char* name, std::uint64_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  rec_.id = tracer.next_id();
  rec_.parent = parent;
  rec_.name = name;
  saved_current_ = tl_current;
  tl_current = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = now_ns();
  tl_current = saved_current_;
  Tracer::instance().record(rec_);
}

std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::uint64_t, std::int64_t> self;
  for (const SpanRecord& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<double> durations_of(const std::vector<SpanRecord>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name) out.push_back(s.seconds());
  return out;
}

std::vector<double> self_seconds_of(
    const std::vector<SpanRecord>& spans,
    const std::map<std::uint64_t, std::int64_t>& self,
    const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name) out.push_back(static_cast<double>(self.at(s.id)) * 1e-9);
  return out;
}

}  // namespace perfbench
