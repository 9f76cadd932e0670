// Tests of the benchmark's own arithmetic: the percentile reporting rule,
// span self time, and the open-loop schedule generator. Run:
//   perfbench_selftest   (exit 0 = all pass)
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest FAILED line %d: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(percentile(v, 50) == 50);
  EXPECT(percentile(v, 99) == 99);
  EXPECT(percentile(v, 100) == 100);
  EXPECT(percentile({}, 50) == 0);
  EXPECT(percentile({7}, 99) == 7);

  // Ten samples beyond: p99 needs n >= 1000, p90 n >= 100, p50 n >= 20.
  EXPECT(samples_beyond(1000, 99) == 10);
  EXPECT(samples_beyond(999, 99) == 9);
  EXPECT(tail_percentile(1000) == 99);
  EXPECT(tail_percentile(999) == 95);
  EXPECT(tail_percentile(10000) == 99.9);
  EXPECT(tail_percentile(100) == 90);
  EXPECT(tail_percentile(40) == 75);
  EXPECT(tail_percentile(20) == 50);
  EXPECT(tail_percentile(19) == 0);

  const Summary s = summarize(v);
  EXPECT(s.count == 100 && s.p50 == 50 && s.tail_pct == 90 && s.tail == 90);
  const Summary few = summarize({3, 1, 2});
  EXPECT(few.tail_pct == 0 && few.tail == 2);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t a,
                std::int64_t b) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = "x";
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void test_self_time() {
  // Parent [0,100); children [10,30) and [20,50) overlap (two threads), a
  // third [90,120) sticks out past the parent; grandchild [12,18) must not
  // count against the parent.
  const std::vector<SpanRecord> spans = {
      span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
      span(4, 1, 90, 120), span(5, 2, 12, 18)};
  const auto self = self_times(spans);
  EXPECT(self.at(1) == 100 - 40 - 10);
  EXPECT(self.at(2) == 20 - 6);
  EXPECT(self.at(3) == 30);
  EXPECT(self.at(4) == 30);
  EXPECT(self.at(5) == 6);

  // Disjoint children, and a leaf.
  const auto s2 = self_times({span(1, 0, 0, 10), span(2, 1, 0, 3), span(3, 1, 5, 10)});
  EXPECT(s2.at(1) == 2);

  // The recorder nests spans through the thread's current span.
  Tracer& t = Tracer::instance();
  t.clear();
  t.set_enabled(true);
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  t.set_enabled(false);
  { Span ignored("ignored"); }
  const auto rec = t.collect();
  EXPECT(rec.size() == 2);
  if (rec.size() == 2) {
    EXPECT(std::string(rec[0].name) == "outer" && rec[0].parent == 0);
    EXPECT(std::string(rec[1].name) == "inner" && rec[1].parent == rec[0].id);
    EXPECT(rec[1].start_ns >= rec[0].start_ns && rec[1].end_ns <= rec[0].end_ns);
  }
  t.clear();
}

void test_schedule() {
  ScheduleParams p;
  p.rate_fps = 5000;
  p.frames = 20000;
  p.connections = 2;
  p.grids = 4;
  const auto a = poisson_schedule(42, p);
  const auto b = poisson_schedule(42, p);
  const auto c = poisson_schedule(43, p);
  EXPECT(!a.empty());
  bool same = a.size() == b.size();
  for (std::size_t k = 0; same && k < a.size(); ++k)
    same = a[k].due_ns == b[k].due_ns && a[k].conn == b[k].conn &&
           a[k].points == b[k].points;
  EXPECT(same);  // the seed fixes the schedule
  EXPECT(c.size() != a.size() || c[0].due_ns != a[0].due_ns);

  // 20,000 arrivals at 5,000/s span ~4 s (sd of the sum of gaps ~0.7%).
  EXPECT(a.size() == 20000);
  EXPECT(std::abs(static_cast<double>(a.back().due_ns) * 1e-9 / 4.0 - 1) < 0.03);
  std::size_t big = 0, conn1 = 0;
  bool ordered = true, round_robin = true;
  for (std::size_t k = 0; k < a.size(); ++k) {
    big += a[k].points == p.big_points;
    conn1 += a[k].conn == 1;
    if (k > 0) ordered = ordered && a[k].due_ns >= a[k - 1].due_ns;
    round_robin = round_robin && a[k].grid == k % p.grids;
    EXPECT(a[k].points == 1 || a[k].points == p.big_points);
  }
  EXPECT(ordered);
  EXPECT(round_robin);
  const double big_share = static_cast<double>(big) / static_cast<double>(a.size());
  EXPECT(std::abs(big_share - 0.1) < 0.01);
  const double conn_share = static_cast<double>(conn1) / static_cast<double>(a.size());
  EXPECT(std::abs(conn_share - 0.5) < 0.02);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_schedule();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
