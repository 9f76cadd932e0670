// The three benchmark workloads. Each runs the paper's Fig. 1 pipeline on
// its own data — compress (hierarchize + save, load + dehierarchize), query
// (load + batched evaluation) and serve (traffic through net::NetServer in
// front of serve::EvalService) — and gives most of its
// time to the stage it is named after. README.md in this directory gives
// the rationale of every shape and the metric -> layer -> workload table.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "csg/core/compact_storage.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/core/point_block.hpp"
#include "csg/io/serialize.hpp"
#include "csg/net/protocol.hpp"
#include "csg/net/server.hpp"
#include "csg/net/transport.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/serve/grid_registry.hpp"
#include "csg/serve/service.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using csg::CompactStorage;
using csg::CoordVector;
using csg::real_t;
using csg::workloads::TestFunction;

// Two OpenMP threads on a 4-vCPU host: with one per vCPU, every parallel
// region waited for whichever vCPU the hypervisor had just taken away, and
// per-call times swung twice as much between runs.
constexpr int kThreads = 2;
constexpr std::size_t kBlock = 64;
// |interpolant - field| bound of the query check. On the seed the largest
// error stays far below it on all three query grids (every run prints it).
constexpr double kInterpBound = 0.05;
// Set-up runs at least kSetupMinRepeats times, and more while the repeats
// so far took under kSetupBudgetS in total; the median is reported.
constexpr std::size_t kSetupMinRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 9;
constexpr double kSetupBudgetS = 3;
constexpr std::chrono::milliseconds kRepublishEvery{250};

// ---------------------------------------------------------------------------
// Serve stage. Capacity is measured in a closed loop (serve_capacity), not
// as the highest open-loop rate within a latency limit: on a shared 4-vCPU
// host open-loop p99s swing 0.5x-2x with the hypervisor's steal time, and so
// would any rate derived from them. Open-loop latencies at two fixed rates
// are per-layer metrics of the traced run: `low` (3,800 frames/s) and `high`
// (11,347 frames/s), a quarter and three quarters of the ~15k frames/s a
// 3 ms p99 limit allowed on a quiet host.
// ---------------------------------------------------------------------------
constexpr double kLowRate = 3800;
constexpr double kHighRate = 11347;
constexpr double kCapacityWindowS = 0.1;
// Frames outstanding per connection in the closed loop: four times the
// server's max_in_flight, so its reader always finds the next frame waiting
// and the figure measures the server, not the client's round trip.
constexpr std::size_t kCapacityDepth = 32;
// Larger than anything the benchmark can queue, so no request is refused:
// the wire path holds at most 2 x (max_in_flight + 2) frames per shard, and
// the direct step has no bound but must ride out a host stall.
constexpr std::size_t kQueueCapacity = std::size_t{1} << 16;
// Five windows of 1,100: each window's p99 keeps ten samples beyond it.
constexpr std::size_t kMinStepFrames = 5500;

/// Seconds of one open-loop step at a named rate (traced runs only).
double named_step_seconds(double run_seconds) {
  return 3 * std::max(0.6, 0.08 * run_seconds);
}

double since_s(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

std::chrono::steady_clock::time_point at_ns(std::int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

// ---------------------------------------------------------------------------
// Workload configurations
// ---------------------------------------------------------------------------

struct Config {
  csg::dim_t d = 0;
  csg::level_t n = 0;
  // compress stage: share of --seconds, and the least cycles to run
  double compress_share = 0;
  std::size_t compress_min_cycles = 1;
  // query stage: uniform points + one w x h slice raster, in calls of
  // call_points; share of --seconds and least calls to run
  std::size_t query_uniform = 0;
  std::size_t raster_w = 0, raster_h = 0;
  std::size_t call_points = 0;
  double query_share = 0;
  std::size_t query_min_calls = 0;
  // serve stage: share of --seconds of the closed-loop capacity measurement
  double serve_share = 0;
  // The untraced run cycles through the three stages this many times, each
  // pass giving every stage its share / passes, so that every stage samples
  // the whole run and a slow spell of the host does not land on one stage.
  std::size_t passes = 1;
};

Config config_for(const std::string& name) {
  Config c;
  if (name == "compress") {
    // d=10 n=10: 32,978,945 points, 252 MiB of coefficients — past the LLC.
    c.d = 10; c.n = 10;
    c.compress_share = 0.7; c.compress_min_cycles = 1;
    c.query_uniform = 512; c.raster_w = 32; c.raster_h = 16;
    c.call_points = 64; c.query_share = 0.15; c.query_min_calls = 20;
    c.serve_share = 0.3;
    c.passes = 1;  // one cycle already takes longer than --seconds
  } else if (name == "query") {
    // d=6 n=11: 4,571,137 points, 35 MiB, 8,008 subspaces.
    c.d = 6; c.n = 11;
    c.compress_share = 0.08; c.compress_min_cycles = 6;
    c.query_uniform = 65536; c.raster_w = 256; c.raster_h = 256;
    c.call_points = 4096; c.query_share = 0.7; c.query_min_calls = 32;
    c.serve_share = 0.25;
    c.passes = 3;
  } else if (name == "serve") {
    // d=4 n=10: 178,177 points, 1.4 MiB — cache-resident, and long enough
    // per call that OpenMP fork/join does not dominate.
    c.d = 4; c.n = 10;
    c.compress_share = 0.1; c.compress_min_cycles = 5;
    c.query_uniform = 65536; c.raster_w = 256; c.raster_h = 256;
    c.call_points = 4096; c.query_share = 0.15; c.query_min_calls = 32;
    c.serve_share = 0.6;
    c.passes = 5;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (want compress, query or serve)");
  }
  return c;
}

// ---------------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------------

void sample_parallel(CompactStorage& s, const TestFunction& f) {
  const csg::RegularSparseGrid& g = s.grid();
  const auto n = static_cast<std::int64_t>(s.size());
  real_t* out = s.data();
#pragma omp parallel for schedule(static) num_threads(kThreads)
  for (std::int64_t j = 0; j < n; ++j)
    out[j] = f(csg::coordinates(g.idx2gp(static_cast<csg::flat_index_t>(j))));
}

/// Half uniform points (neighbours share no cells), half one axis-aligned
/// slice raster (neighbours share cells), both from the seed. Every call of
/// call_points takes its first half from the uniform points and its second
/// half from the raster, so all calls do the same mix of work and their
/// median is not decided by which kind of call happens to sit in the middle.
std::vector<CoordVector> query_points(const Config& c, std::uint64_t seed) {
  const std::vector<CoordVector> uniform =
      csg::workloads::uniform_points(c.d, c.query_uniform, mix_seed(seed, 11));
  std::mt19937_64 rng(mix_seed(seed, 12));
  std::uniform_real_distribution<real_t> u(0, 1);
  CoordVector anchor(c.d);
  for (csg::dim_t t = 0; t < c.d; ++t) anchor[t] = u(rng);
  const auto dx = static_cast<csg::dim_t>(rng() % c.d);
  const auto dy = static_cast<csg::dim_t>((dx + 1 + rng() % (c.d - 1)) % c.d);
  const auto raster =
      csg::workloads::slice_points(anchor, dx, dy, c.raster_w, c.raster_h);
  const std::size_t half = c.call_points / 2;
  if (raster.size() != uniform.size() || uniform.size() % half != 0)
    throw std::logic_error("query point set does not split into calls");
  std::vector<CoordVector> pts;
  pts.reserve(2 * uniform.size());
  for (std::size_t i = 0; i < uniform.size(); i += half) {
    const auto at = static_cast<std::ptrdiff_t>(i);
    const auto end = static_cast<std::ptrdiff_t>(i + half);
    pts.insert(pts.end(), uniform.begin() + at, uniform.begin() + end);
    pts.insert(pts.end(), raster.begin() + at, raster.begin() + end);
  }
  return pts;
}

// ---------------------------------------------------------------------------
// Serve rig: registry + service + loopback NetServer + two connections
// ---------------------------------------------------------------------------

struct ServeRig {
  csg::serve::GridRegistry registry;
  std::vector<std::string> names;
  std::vector<CompactStorage> coeffs;  // what is published, for republish
                                       // and for the reference evaluate()
  std::unique_ptr<csg::serve::EvalService> service;
  std::unique_ptr<csg::net::LoopbackListener> listener;
  std::unique_ptr<csg::net::NetServer> server;
  std::vector<std::unique_ptr<csg::net::ByteStream>> conns;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() { shutdown(); }

  void shutdown() {
    for (auto& c : conns) c->shutdown();
    if (server) server->stop();
    if (listener) listener->close();
    if (service) service->stop(true);
    conns.clear();
    server.reset();
    listener.reset();
    service.reset();
  }
};

std::unique_ptr<ServeRig> make_serve_rig() {
  auto rig = std::make_unique<ServeRig>();
  const csg::dim_t d = 4;
  const std::vector<TestFunction> fields = {
      csg::workloads::simulation_field(d), csg::workloads::gaussian_bump(d),
      csg::workloads::oscillatory(d), csg::workloads::parabola_product(d)};
  for (std::size_t g = 0; g < fields.size(); ++g) {
    CompactStorage s(d, 8);
    sample_parallel(s, fields[g]);
    csg::parallel::omp_hierarchize(s, kThreads);
    rig->names.push_back("grid" + std::to_string(g));
    rig->registry.add(rig->names.back(), s);
    rig->coeffs.push_back(std::move(s));
  }
  // Shipped defaults, except the shard shape and a queue no step can fill.
  csg::serve::ServiceOptions so;
  so.shard_count = 2;
  so.workers = 1;
  so.queue_capacity = kQueueCapacity;
  rig->service = std::make_unique<csg::serve::EvalService>(rig->registry, so);
  rig->listener = std::make_unique<csg::net::LoopbackListener>();
  rig->server = std::make_unique<csg::net::NetServer>(
      *rig->listener, rig->registry, *rig->service);
  rig->server->start();
  for (int c = 0; c < 2; ++c) rig->conns.push_back(rig->listener->connect());
  return rig;
}

// ---------------------------------------------------------------------------
// Set-up: everything before the first timed operation
// ---------------------------------------------------------------------------

struct Prepared {
  std::unique_ptr<CompactStorage> nodal;  // compress-stage input
  std::string query_file;                 // empty: the compress stage writes it
  std::unique_ptr<ServeRig> rig;
};

Prepared prepare(const std::string& workload, const Config& c,
                 const std::string& dir) {
  Prepared p;
  p.nodal = std::make_unique<CompactStorage>(c.d, c.n);
  sample_parallel(*p.nodal, csg::workloads::simulation_field(c.d));
  if (workload != "compress") {
    CompactStorage coeffs = *p.nodal;
    csg::parallel::omp_hierarchize(coeffs, kThreads);
    p.query_file = dir + "/query-grid.csg";
    csg::io::save_file(coeffs, p.query_file);
  }
  // Plan warm-up for the query grid shape.
  (void)csg::EvaluationPlan::shared(p.nodal->grid());
  p.rig = make_serve_rig();
  return p;
}

// ---------------------------------------------------------------------------
// Compress stage: hierarchize -> save -> load -> dehierarchize, repeated
// ---------------------------------------------------------------------------

struct CompressOut {
  std::vector<double> compress_s, restore_s;
  std::size_t cycles = 0;
};

/// `nodal` holds nodal values on entry and the restored nodal values of the
/// last cycle on exit; `path` holds the last cycle's coefficients.
CompressOut compress_stage(CompactStorage& nodal, const TestFunction& f,
                           const std::string& path, double budget_s,
                           std::size_t min_cycles, Result& res) {
  CompressOut out;
  const std::int64_t t_begin = now_ns();
  const csg::RegularSparseGrid& g = nodal.grid();
  const csg::flat_index_t stride = std::max<csg::flat_index_t>(1, g.num_points() / 4096);
  while (out.cycles < min_cycles || since_s(t_begin) < budget_s) {
    Span cycle("compress.cycle");
    const std::int64_t t0 = now_ns();
    {
      Span s("core.omp_hierarchize");
      csg::parallel::omp_hierarchize(nodal, kThreads);
    }
    {
      Span s("io.save_file");
      csg::io::save_file(nodal, path);
    }
    const std::int64_t t1 = now_ns();
    std::unique_ptr<CompactStorage> restored;
    {
      Span s("io.load_file");
      restored = std::make_unique<CompactStorage>(csg::io::load_file(path));
    }
    {
      Span s("core.omp_dehierarchize");
      csg::parallel::omp_dehierarchize(*restored, kThreads);
    }
    const std::int64_t t2 = now_ns();
    out.compress_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    out.restore_s.push_back(static_cast<double>(t2 - t1) * 1e-9);

    // Round trip: restored nodal values equal the samples up to rounding.
    double worst = 0;
    for (csg::flat_index_t j = 0; j < g.num_points(); j += stride) {
      const real_t want = f(csg::coordinates(g.idx2gp(j)));
      worst = std::max(worst, std::abs((*restored)[j] - want));
    }
    res.check(worst <= 1e-12, "compress round trip error " + std::to_string(worst));
    nodal = std::move(*restored);
    ++out.cycles;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Query stage: load the grid file, evaluate the point set in calls
// ---------------------------------------------------------------------------

struct QueryOut {
  double load_s = 0;
  std::vector<double> call_s;
  std::size_t points = 0;
  std::uint64_t pointblock_allocs = 0;
  std::size_t subspaces = 0;
  double max_error = 0;  ///< largest |interpolant - field| checked
};

/// Evaluates calls first_call, first_call + 1, ... of the point set (it
/// wraps around), after one untimed warm-up call.
QueryOut query_stage(const std::string& path, const std::vector<CoordVector>& pts,
                     const Config& c, const TestFunction& f, double budget_s,
                     int threads, std::size_t min_calls, Result& res,
                     std::size_t first_call = 0) {
  QueryOut out;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<CompactStorage> grid;
  {
    Span s("io.load_file");
    grid = std::make_unique<CompactStorage>(csg::io::load_file(path));
  }
  out.load_s = since_s(t0);
  out.subspaces = csg::EvaluationPlan::shared(grid->grid())->subspace_count();
  const std::size_t calls_per_pass = pts.size() / c.call_points;

  auto one_call = [&](std::size_t call, bool timed) {
    const std::span<const CoordVector> batch(
        pts.data() + ((first_call + call) % calls_per_pass) * c.call_points,
        c.call_points);
    const std::int64_t tc = now_ns();
    std::vector<real_t> vals;
    {
      Span s("parallel.omp_evaluate_many_blocked");
      vals = csg::parallel::omp_evaluate_many_blocked(*grid, batch, kBlock, threads);
    }
    if (timed) out.call_s.push_back(since_s(tc));
    Span check("query.check");
    for (std::size_t i = 0; i < batch.size(); i += 64) {
      const real_t single = csg::evaluate(*grid, batch[i]);
      const real_t err = std::abs(vals[i] - f(batch[i]));
      out.max_error = std::max(out.max_error, err);
      res.check(vals[i] == single && err <= kInterpBound,
                "query point " + std::to_string(i) + " batch " +
                    std::to_string(vals[i]) + " single " + std::to_string(single) +
                    " error " + std::to_string(err));
    }
  };

  one_call(0, false);  // warm-up: thread-local PointBlock arenas grow here
  const std::uint64_t allocs0 = csg::PointBlock::allocation_count();
  const std::int64_t t_calls = now_ns();
  for (std::size_t call = 1; call <= min_calls || since_s(t_calls) < budget_s; ++call)
    one_call(call, true);
  out.pointblock_allocs = csg::PointBlock::allocation_count() - allocs0;
  out.points = out.call_s.size() * c.call_points;
  return out;
}

/// points / (load + calls x median call): the median keeps a host stall
/// during one call from moving the figure.
double points_per_s(const QueryOut& q) {
  return static_cast<double>(q.points) /
         (q.load_s + static_cast<double>(q.call_s.size()) * median(q.call_s));
}

// ---------------------------------------------------------------------------
// Serve stage: open-loop steps through the wire (or straight to the service)
// ---------------------------------------------------------------------------

struct StepInput {
  double rate = 0;
  std::vector<FrameSpec> frames;
  std::vector<std::vector<CoordVector>> points;
  std::vector<std::vector<std::uint8_t>> wire;  // encoded request per frame
  std::vector<std::vector<real_t>> expect;      // reference evaluate() values
  std::vector<std::vector<std::size_t>> by_conn;
  std::size_t total_points = 0;
};

StepInput make_step_input(const ServeRig& rig, std::uint64_t seed,
                          std::uint64_t salt, double rate, double seconds) {
  StepInput in;
  in.rate = rate;
  ScheduleParams sp;
  sp.rate_fps = rate;
  sp.frames = std::max(kMinStepFrames, static_cast<std::size_t>(rate * seconds));
  sp.connections = static_cast<std::uint32_t>(rig.conns.size());
  sp.grids = static_cast<std::uint32_t>(rig.names.size());
  in.frames = poisson_schedule(mix_seed(seed, salt), sp);
  const std::size_t nf = in.frames.size();
  std::mt19937_64 rng(mix_seed(seed, salt + 7919));
  std::uniform_real_distribution<real_t> u(0, 1);
  in.by_conn.resize(sp.connections);
  in.points.resize(nf);
  for (std::size_t k = 0; k < nf; ++k) {
    const FrameSpec& f = in.frames[k];
    const csg::dim_t d = rig.coeffs[f.grid].dim();
    in.points[k].assign(f.points, CoordVector(d));
    for (CoordVector& x : in.points[k])
      for (csg::dim_t t = 0; t < d; ++t) x[t] = u(rng);
    in.by_conn[f.conn].push_back(k);
    in.total_points += f.points;
  }
  in.wire.resize(nf);
  in.expect.resize(nf);
#pragma omp parallel for schedule(dynamic, 64) num_threads(kThreads)
  for (std::size_t k = 0; k < nf; ++k) {
    const CompactStorage& grid = rig.coeffs[in.frames[k].grid];
    for (const CoordVector& x : in.points[k])
      in.expect[k].push_back(csg::evaluate(grid, x));
    csg::net::EvalRequest req;
    req.id = k + 1;
    req.grid = rig.names[in.frames[k].grid];
    req.points = in.points[k];
    in.wire[k] = csg::net::encode_eval_request(req);
  }
  return in;
}

struct StepResult {
  double rate = 0;
  std::vector<double> latency_us;  // per frame, from its due time
  std::vector<double> lag_us;      // send time - due time
  std::vector<double> publish_us;
  std::uint64_t frames = 0, completed = 0, failed = 0;

  /// The step's p99: the median of the p99s of its five consecutive
  /// fifths (in due-time order), so a stall or two cannot decide it.
  double p99() const {
    constexpr std::ptrdiff_t kWindows = 5;
    const auto w = static_cast<std::ptrdiff_t>(latency_us.size()) / kWindows;
    std::vector<double> per;
    for (std::ptrdiff_t i = 0; i < kWindows; ++i)
      per.push_back(percentile(std::vector<double>(latency_us.begin() + i * w,
                                                   latency_us.begin() + (i + 1) * w),
                               99));
    return median(per);
  }
};

/// Reads one response frame from `stream` into `good`: true when it answers
/// frame k of `in` with its id, status kOk for every point, and every value
/// bit-identical to evaluate() on the reference grid. Returns false when the
/// stream ended or the framing broke.
bool read_response(csg::net::ByteStream& stream, const StepInput& in,
                   std::size_t k, std::vector<std::uint8_t>& header,
                   std::vector<std::uint8_t>& payload, bool& good) {
  const csg::net::ProtocolLimits limits;
  header.resize(csg::net::kFrameHeaderBytes);
  if (!csg::net::read_exact(stream, header.data(), header.size())) return false;
  csg::net::FrameHeader h;
  if (csg::net::decode_header(header, h, limits) != csg::net::WireError::kNone)
    return false;
  payload.resize(h.payload_bytes);
  if (!csg::net::read_exact(stream, payload.data(), payload.size())) return false;
  csg::net::EvalResponse resp;
  good = h.type == csg::net::MsgType::kEvalResponse &&
         csg::net::decode_eval_response(payload, resp, limits) ==
             csg::net::WireError::kNone &&
         resp.id == k + 1 && resp.results.size() == in.expect[k].size();
  for (std::size_t p = 0; good && p < resp.results.size(); ++p)
    good = resp.results[p].status ==
               static_cast<std::uint8_t>(csg::serve::Status::kOk) &&
           resp.results[p].value == in.expect[k][p];
  return true;
}

/// Republishes the same coefficients, one grid every kRepublishEvery, until
/// finish(). Answers stay bit-identical because the values do not change.
class Republisher {
 public:
  explicit Republisher(ServeRig& rig) : rig_(rig), thread_([this] { loop(); }) {}
  ~Republisher() { finish(); }
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  std::vector<double> finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return publish_us_;
  }

 private:
  void loop() {
    std::size_t g = 0;
    auto next = std::chrono::steady_clock::now() + kRepublishEvery;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
      lock.unlock();
      CompactStorage copy = rig_.coeffs[g];
      const std::int64_t t0 = now_ns();
      {
        Span s("serve.registry_add");
        rig_.registry.add(rig_.names[g], std::move(copy));
      }
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;
      lock.lock();
      publish_us_.push_back(us);
      g = (g + 1) % rig_.names.size();
      next += kRepublishEvery;
    }
  }

  ServeRig& rig_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> publish_us_;
  std::thread thread_;  // last: started after the members it uses
};

void finish_step(StepResult& r, const StepInput& in, std::vector<double>& lat) {
  r.rate = in.rate;
  r.frames = in.frames.size();
  r.latency_us = std::move(lat);
}

StepResult run_wire_step(ServeRig& rig, const StepInput& in) {
  const std::size_t nf = in.frames.size();
  std::vector<double> lat(nf, 0), lag(nf, 0);
  std::vector<char> ok(nf, 0);
  std::atomic<std::size_t> receivers_left{in.by_conn.size()};
  Span step_span("loadgen.wire_step");
  const std::uint64_t parent = step_span.id();
  Republisher republisher(rig);
  const std::int64_t start = now_ns() + 2'000'000;

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < in.by_conn.size(); ++c) {
    csg::net::ByteStream& stream = *rig.conns[c];
    const std::vector<std::size_t>& mine = in.by_conn[c];
    threads.emplace_back([&, &stream = stream, &mine = mine] {
      prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      for (std::size_t k : mine) {
        const std::int64_t due = start + in.frames[k].due_ns;
        std::this_thread::sleep_until(at_ns(due));
        lag[k] = static_cast<double>(now_ns() - due) * 1e-3;
        Span s("net.write_frame", parent);
        if (!stream.write_all(in.wire[k].data(), in.wire[k].size())) return;
      }
    });
    threads.emplace_back([&, &stream = stream, &mine = mine] {
      std::vector<std::uint8_t> header, payload;
      for (std::size_t k : mine) {
        Span s("net.read_frame", parent);
        bool good = false;
        if (!read_response(stream, in, k, header, payload, good)) break;
        lat[k] = static_cast<double>(now_ns() - (start + in.frames[k].due_ns)) * 1e-3;
        ok[k] = good ? 1 : 0;
      }
      receivers_left.fetch_sub(1);
    });
  }
  // Watchdog: a server that stops answering must not hang the benchmark.
  const std::int64_t give_up = start + in.frames.back().due_ns + 10'000'000'000;
  while (receivers_left.load() > 0 && now_ns() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (receivers_left.load() > 0)
    for (auto& conn : rig.conns) conn->shutdown();
  for (auto& t : threads) t.join();

  StepResult r;
  r.publish_us = republisher.finish();
  for (std::size_t k = 0; k < nf; ++k) {
    if (ok[k]) ++r.completed;
    else ++r.failed;
  }
  r.lag_us = std::move(lag);
  finish_step(r, in, lat);
  return r;
}

/// The same schedule submitted straight to EvalService: no codec, no
/// transport, one future per point as NetServer does.
StepResult run_direct_step(ServeRig& rig, const StepInput& in) {
  const std::size_t nf = in.frames.size();
  std::vector<double> lat(nf, 0), lag(nf, 0);
  std::vector<char> ok(nf, 0);
  Span step_span("loadgen.direct_step");
  const std::uint64_t parent = step_span.id();
  Republisher republisher(rig);
  const std::int64_t start = now_ns() + 2'000'000;

  struct Pending {
    std::size_t k = 0;
    std::vector<std::future<csg::serve::EvalResult>> futures;
  };
  struct Channel {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool done = false;
  };
  std::vector<Channel> channels(in.by_conn.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < in.by_conn.size(); ++c) {
    Channel& ch = channels[c];
    const std::vector<std::size_t>& mine = in.by_conn[c];
    threads.emplace_back([&, &ch = ch, &mine = mine] {
      prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      for (std::size_t k : mine) {
        const std::int64_t due = start + in.frames[k].due_ns;
        std::this_thread::sleep_until(at_ns(due));
        lag[k] = static_cast<double>(now_ns() - due) * 1e-3;
        Pending p;
        p.k = k;
        {
          Span s("serve.submit", parent);
          for (const CoordVector& x : in.points[k])
            p.futures.push_back(rig.service->submit(rig.names[in.frames[k].grid], x));
        }
        {
          std::lock_guard<std::mutex> lock(ch.mutex);
          ch.queue.push_back(std::move(p));
        }
        ch.cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(ch.mutex);
        ch.done = true;
      }
      ch.cv.notify_one();
    });
    threads.emplace_back([&, &ch = ch] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(ch.mutex);
          ch.cv.wait(lock, [&] { return ch.done || !ch.queue.empty(); });
          if (ch.queue.empty()) return;
          p = std::move(ch.queue.front());
          ch.queue.pop_front();
        }
        bool good = true;
        {
          Span s("serve.wait", parent);
          for (std::size_t i = 0; i < p.futures.size(); ++i) {
            const csg::serve::EvalResult r = p.futures[i].get();
            good = good && r.status == csg::serve::Status::kOk &&
                   r.value == in.expect[p.k][i];
          }
        }
        lat[p.k] = static_cast<double>(now_ns() - (start + in.frames[p.k].due_ns)) * 1e-3;
        ok[p.k] = good ? 1 : 0;
      }
    });
  }
  for (auto& t : threads) t.join();

  StepResult r;
  r.publish_us = republisher.finish();
  for (std::size_t k = 0; k < nf; ++k) {
    if (ok[k]) ++r.completed;
    else ++r.failed;
  }
  r.lag_us = std::move(lag);
  finish_step(r, in, lat);
  return r;
}

void count_step(const StepResult& r, Result& res, const char* label) {
  res.attempted += r.frames;
  res.failed += r.failed;
  if (r.failed > 0 && res.failures.size() < 8)
    res.failures.push_back(std::to_string(r.failed) + " failed frames at " +
                           label + " rate " + std::to_string(r.rate));
}

struct CapacityOut {
  std::vector<double> window_fps;  ///< frames completed per second, per window
  std::uint64_t frames = 0, failed = 0;
};

/// Sets the CPU affinity of every thread of the process, those of the
/// library's server, service and OpenMP pools included.
void set_process_affinity(const cpu_set_t& set) {
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    const auto tid = static_cast<pid_t>(std::stol(entry.path().filename().string()));
    sched_setaffinity(tid, sizeof set, &set);
  }
}

/// Pins the whole process to one CPU for its lifetime, then restores the
/// affinity it found. The serve pipeline hands every frame across six
/// threads; spread over the vCPUs, its throughput depended on where the
/// scheduler happened to place them (cross-vCPU wake-ups cost a VM exit)
/// and swung 2x between runs. On one CPU it measures the pipeline's own
/// cost per frame.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    int last = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &saved_)) last = cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    set_process_affinity(one);
    pinned_ = true;
  }
  ~PinToOneCpu() {
    if (pinned_) set_process_affinity(saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Closed loop through the wire, from this one thread: every connection
/// keeps kCapacityDepth frames outstanding, cycling through its frames of
/// `in` in order, and each response is answered with that connection's next
/// frame. After one warm-up window, the frames completed in every
/// kCapacityWindowS window are counted until `seconds` have passed; then the
/// outstanding frames drain.
CapacityOut serve_capacity(ServeRig& rig, const StepInput& in, double seconds) {
  CapacityOut out;
  const std::size_t nconn = in.by_conn.size();
  std::vector<std::size_t> sent(nconn, 0);
  std::vector<std::deque<std::size_t>> outstanding(nconn);
  std::vector<std::uint8_t> header, payload;
  const PinToOneCpu pin;
  Republisher republisher(rig);
  bool broken = false;

  auto send = [&](std::size_t c) {
    const std::vector<std::size_t>& mine = in.by_conn[c];
    const std::size_t k = mine[sent[c]++ % mine.size()];
    outstanding[c].push_back(k);
    if (!rig.conns[c]->write_all(in.wire[k].data(), in.wire[k].size())) broken = true;
  };
  auto receive = [&](std::size_t c) {
    const std::size_t k = outstanding[c].front();
    outstanding[c].pop_front();
    bool good = false;
    if (!read_response(*rig.conns[c], in, k, header, payload, good)) broken = true;
    ++out.frames;
    if (!good) ++out.failed;
  };

  for (std::size_t c = 0; c < nconn; ++c)
    for (std::size_t i = 0; i < kCapacityDepth && !broken; ++i) send(c);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const auto window_ns = static_cast<std::int64_t>(kCapacityWindowS * 1e9);
  std::int64_t window_start = now_ns();
  std::uint64_t window_frames = 0;
  bool warm = false;
  while (!broken && window_start < end) {
    for (std::size_t c = 0; c < nconn && !broken; ++c) {
      receive(c);
      ++window_frames;
      if (!broken) send(c);
    }
    const std::int64_t now = now_ns();
    if (now - window_start >= window_ns) {
      if (warm)
        out.window_fps.push_back(static_cast<double>(window_frames) /
                                 (static_cast<double>(now - window_start) * 1e-9));
      warm = true;
      window_start = now;
      window_frames = 0;
    }
  }
  for (std::size_t c = 0; c < nconn; ++c)
    while (!broken && !outstanding[c].empty()) receive(c);
  // Frames a broken stream never answered are failures too.
  for (const auto& o : outstanding) {
    out.frames += o.size();
    out.failed += o.size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting helpers
// ---------------------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void note(const std::string& line) { std::printf("%s\n", line.c_str()); }

void note_summary(const std::string& name, const std::vector<double>& v,
                  const char* unit) {
  const Summary s = summarize(v);
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-28s median %.6g %s, p%g %.6g %s, n=%zu",
                name.c_str(), s.p50, unit, s.tail_pct, s.tail, unit, s.count);
  note(buf);
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void run_workload(const Options& opts, Result& res) {
  const Config c = config_for(opts.workload);
  const TestFunction field = csg::workloads::simulation_field(c.d);
  Tracer& tracer = Tracer::instance();
  std::filesystem::create_directories(opts.out_dir);
  const std::string compress_file = opts.out_dir + "/compress-grid.csg";
  note("perfbench: workload " + opts.workload + " seed " +
       std::to_string(opts.seed) + " seconds " + std::to_string(opts.seconds) +
       (opts.trace ? " traced" : " untraced"));

  // Set-up, repeated when untraced (setup_s is an end-to-end metric); the
  // last one is kept.
  std::vector<double> setup_s;
  Prepared prep;
  double setup_total = 0;
  const std::size_t min_setups = opts.trace ? 1 : kSetupMinRepeats;
  const std::size_t max_setups = opts.trace ? 1 : kSetupMaxRepeats;
  while (setup_s.size() < min_setups ||
         (setup_s.size() < max_setups && setup_total < kSetupBudgetS)) {
    prep = Prepared{};
    csg::EvaluationPlan::shared_cache_clear();
    const std::int64_t t0 = now_ns();
    prep = prepare(opts.workload, c, opts.out_dir);
    setup_s.push_back(since_s(t0));
    setup_total += setup_s.back();
  }
  const std::vector<CoordVector> pts = query_points(c, opts.seed);
  const double T = opts.seconds;

  if (!opts.trace) {
    const StepInput cap_in = make_step_input(*prep.rig, opts.seed, 100, kHighRate, 0);
    if (prep.query_file.empty()) prep.query_file = compress_file;
    const double P = static_cast<double>(c.passes);
    CompressOut cmp;
    QueryOut q;
    std::vector<double> loads;
    CapacityOut cap;
    for (std::size_t pass = 0; pass < c.passes; ++pass) {
      const CompressOut cp = compress_stage(
          *prep.nodal, field, compress_file, c.compress_share * T / P,
          (c.compress_min_cycles + c.passes - 1) / c.passes, res);
      cmp.compress_s.insert(cmp.compress_s.end(), cp.compress_s.begin(), cp.compress_s.end());
      cmp.restore_s.insert(cmp.restore_s.end(), cp.restore_s.begin(), cp.restore_s.end());
      if (pass + 1 == c.passes) prep.nodal.reset();
      const QueryOut qp = query_stage(prep.query_file, pts, c, field,
                                      c.query_share * T / P, kThreads,
                                      (c.query_min_calls + c.passes - 1) / c.passes,
                                      res, q.call_s.size());
      loads.push_back(qp.load_s);
      q.call_s.insert(q.call_s.end(), qp.call_s.begin(), qp.call_s.end());
      q.points += qp.points;
      q.max_error = std::max(q.max_error, qp.max_error);
      const CapacityOut sp = serve_capacity(*prep.rig, cap_in, c.serve_share * T / P);
      cap.window_fps.insert(cap.window_fps.end(), sp.window_fps.begin(), sp.window_fps.end());
      cap.frames += sp.frames;
      cap.failed += sp.failed;
    }
    q.load_s = median(loads);
    prep.rig.reset();
    res.attempted += cap.frames;
    res.failed += cap.failed;
    if (cap.failed > 0)
      res.failures.push_back(std::to_string(cap.failed) + " failed frames at capacity");

    note_summary("setup_s", setup_s, "s");
    note_summary("compress_s", cmp.compress_s, "s");
    note_summary("restore_s", cmp.restore_s, "s");
    note_summary("query_call_s", q.call_s, "s");
    note_summary("serve_capacity_fps", cap.window_fps, "frames/s");
    note("  query max |interpolant - field| " + std::to_string(q.max_error));
    res.put("setup_s", median(setup_s), "s");
    res.put("peak_rss_mb", peak_rss_mb(), "MB");
    res.put("compress_s", median(cmp.compress_s), "s");
    res.put("restore_s", median(cmp.restore_s), "s");
    res.put("query_points_per_s", points_per_s(q), "points/s");
    res.put("serve_capacity_fps", median(cap.window_fps), "frames/s");
    return;
  }

  // ----- traced run -----
  // The workload's own stage runs once untraced and once traced, for the
  // tracing overhead; every stage then yields its per-layer numbers from the
  // traced pass.
  const bool is_compress = opts.workload == "compress";
  const bool is_query = opts.workload == "query";
  const double cshare = is_compress ? c.compress_share / 2 : c.compress_share;
  double untraced = 0, traced = 0;

  CompressOut cmp_plain;
  if (is_compress)
    cmp_plain = compress_stage(*prep.nodal, field, compress_file, cshare * T,
                               1, res);
  tracer.set_enabled(true);
  const CompressOut cmp = compress_stage(*prep.nodal, field, compress_file,
                                         cshare * T, is_compress ? 1 : c.compress_min_cycles, res);
  tracer.set_enabled(false);
  if (is_compress) {
    untraced = median(cmp_plain.compress_s) + median(cmp_plain.restore_s);
    traced = median(cmp.compress_s) + median(cmp.restore_s);
  }
  // parallel.hierarchize_speedup: one single-thread pass on the same grid.
  const std::int64_t t1 = now_ns();
  csg::parallel::omp_hierarchize(*prep.nodal, 1);
  const double hier_1thread = since_s(t1);
  const double bytes_per_point = static_cast<double>(prep.nodal->memory_bytes()) /
                                 static_cast<double>(prep.nodal->size());
  const double grid_points = static_cast<double>(prep.nodal->size());
  if (prep.query_file.empty()) prep.query_file = compress_file;
  prep.nodal.reset();

  // core.plan_build_s: one plan build for the query grid's shape.
  const std::int64_t tp = now_ns();
  { const csg::EvaluationPlan plan(csg::RegularSparseGrid(c.d, c.n)); }
  const double plan_build_s = since_s(tp);

  const double qshare = is_query ? c.query_share / 2 : c.query_share;
  QueryOut q_plain;
  if (is_query)
    q_plain = query_stage(prep.query_file, pts, c, field, qshare * T, kThreads,
                          c.query_min_calls / 2, res);
  tracer.set_enabled(true);
  const QueryOut q = query_stage(prep.query_file, pts, c, field, qshare * T,
                                 kThreads, is_query ? c.query_min_calls / 2 : c.query_min_calls, res);
  tracer.set_enabled(false);
  if (is_query) {
    untraced = 1 / points_per_s(q_plain);
    traced = 1 / points_per_s(q);
  }
  // parallel.eval_speedup: a few single-thread calls of the same size.
  const QueryOut q1 = query_stage(prep.query_file, pts, c, field, 0, 1, 2, res);

  // Serve: the named steps, wire and direct.
  ServeRig& rig = *prep.rig;
  const StepInput low_in = make_step_input(rig, opts.seed, 101, kLowRate,
                                           named_step_seconds(T));
  const StepInput high_in = make_step_input(rig, opts.seed, 102, kHighRate,
                                            named_step_seconds(T));
  StepResult high_plain;
  if (!is_compress && !is_query) {
    high_plain = run_wire_step(rig, high_in);
    count_step(high_plain, res, "untraced high");
  }
  const csg::serve::ServiceStats svc0 = rig.service->stats();
  const csg::net::NetServerStats net0 = rig.server->stats();
  tracer.set_enabled(true);
  const StepResult low = run_wire_step(rig, low_in);
  const StepResult high = run_wire_step(rig, high_in);
  tracer.set_enabled(false);
  const csg::serve::ServiceStats svc1 = rig.service->stats();
  const csg::net::NetServerStats net1 = rig.server->stats();
  tracer.set_enabled(true);
  const StepResult direct = run_direct_step(rig, high_in);
  tracer.set_enabled(false);
  count_step(low, res, "low");
  count_step(high, res, "high");
  count_step(direct, res, "direct");
  if (!is_compress && !is_query) {
    untraced = percentile(high_plain.latency_us, 50);
    traced = percentile(high.latency_us, 50);
  }

  // Codec cost on the high step's frames: encode requests, decode them back.
  std::int64_t enc_ns = 0, dec_ns = 0;
  {
    const csg::net::ProtocolLimits limits;
    for (std::size_t k = 0; k < high_in.frames.size(); ++k) {
      csg::net::EvalRequest req;
      req.id = k + 1;
      req.grid = rig.names[high_in.frames[k].grid];
      req.points = high_in.points[k];
      const std::int64_t a = now_ns();
      const std::vector<std::uint8_t> bytes = csg::net::encode_eval_request(req);
      const std::int64_t b = now_ns();
      csg::net::EvalRequest back;
      const auto err = csg::net::decode_eval_request(
          std::span<const std::uint8_t>(bytes).subspan(csg::net::kFrameHeaderBytes),
          back, limits);
      const std::int64_t e = now_ns();
      res.check(err == csg::net::WireError::kNone && back.points.size() == req.points.size(),
                "codec round trip of frame " + std::to_string(k));
      enc_ns += b - a;
      dec_ns += e - b;
    }
  }
  const double registry_bytes = static_cast<double>(rig.registry.memory_bytes());
  prep.rig.reset();

  const TriadResult triad = measure_triad(kThreads);
  res.check(triad.gbps > 0, "triad result");

  // Spans -> per-layer times.
  const std::vector<SpanRecord> spans = tracer.collect();
  const auto self = self_times(spans);
  const std::vector<double> hier = durations_of(spans, "core.omp_hierarchize");
  const std::vector<double> dehier = durations_of(spans, "core.omp_dehierarchize");
  const std::vector<double> save = durations_of(spans, "io.save_file");
  std::vector<double> load = durations_of(spans, "io.load_file");
  const std::vector<double> cycle_self = self_seconds_of(spans, self, "compress.cycle");
  const std::vector<double> calls = durations_of(spans, "parallel.omp_evaluate_many_blocked");
  std::vector<double> calls_us;
  for (double s : calls) calls_us.push_back(s * 1e6);
  std::vector<double> publish = low.publish_us;
  publish.insert(publish.end(), high.publish_us.begin(), high.publish_us.end());
  const double file_bytes = static_cast<double>(std::filesystem::file_size(compress_file));
  // Compress-stage loads only: the query stage's load comes last and reads
  // another file on the query and serve workloads.
  load.resize(cmp.cycles);

  const double hier_bytes = static_cast<double>(c.d) * grid_points * 4 * 8;
  const double eval_bytes = static_cast<double>(c.call_points) *
                            static_cast<double>(q.subspaces) * 8;
  const Summary call_sum = summarize(calls_us);
  const double med_call_s = median(q.call_s);

  note_summary("core.omp_hierarchize_s", hier, "s");
  note_summary("core.eval_call_us", calls_us, "us");
  note_summary("serve.wire_high_us", high.latency_us, "us");
  note_summary("serve.direct_high_us", direct.latency_us, "us");
  note_summary("serve.publish_us", publish, "us");
  note("  triad: " + std::to_string(triad.gbps) + " GB/s, arrays of " +
       std::to_string(triad.array_bytes >> 20) + " MiB each, LLC " +
       std::to_string(triad.llc_bytes >> 20) + " MiB");

  res.put("core.hierarchize_s", median(hier), "s");
  res.put("core.dehierarchize_s", median(dehier), "s");
  res.put("core.hierarchize_gbps_computed", hier_bytes / median(hier) * 1e-9, "GB/s");
  res.put("core.hierarchize_bw_fraction", hier_bytes / median(hier) * 1e-9 / triad.gbps, "ratio");
  res.put("core.eval_call_us.p50", call_sum.p50, "us");
  res.put("core.eval_call_us.tail", call_sum.tail, "us");
  res.put("core.eval_call_us.tail_pct", call_sum.tail_pct, "percentile");
  res.put("core.eval_calls", static_cast<double>(call_sum.count), "count");
  res.put("core.eval_ns_per_point_subspace",
          med_call_s * 1e9 / (static_cast<double>(c.call_points) *
                              static_cast<double>(q.subspaces)), "ns");
  res.put("core.eval_bw_fraction", eval_bytes / med_call_s * 1e-9 / triad.gbps, "ratio");
  res.put("core.pointblock_allocs", static_cast<double>(q.pointblock_allocs), "count");
  res.put("core.plan_build_s", plan_build_s, "s");
  res.put("core.bytes_per_point", bytes_per_point, "B");
  res.put("compress.cycles", static_cast<double>(cmp.cycles), "count");
  res.put("compress.check_self_s", median(cycle_self), "s");
  res.put("parallel.hierarchize_speedup", hier_1thread / median(hier), "ratio");
  res.put("parallel.eval_speedup", median(q1.call_s) / med_call_s, "ratio");
  res.put("io.save_s", median(save), "s");
  res.put("io.load_s", median(load), "s");
  res.put("io.save_gbps", file_bytes / median(save) * 1e-9, "GB/s");
  res.put("io.load_gbps", file_bytes / median(load) * 1e-9, "GB/s");
  res.put("io.file_bytes", file_bytes, "B");
  const std::uint64_t batches = svc1.batches_formed - svc0.batches_formed;
  res.put("serve.batches", static_cast<double>(batches), "count");
  res.put("serve.mean_batch_points",
          static_cast<double>(svc1.batched_points - svc0.batched_points) /
              static_cast<double>(std::max<std::uint64_t>(1, batches)),
          "points");
  std::uint64_t depth = 0;
  for (const auto& s : svc1.shards) depth = std::max(depth, s.max_queue_depth);
  res.put("serve.max_queue_depth", static_cast<double>(depth), "count");
  res.put("serve.timed_out", static_cast<double>(svc1.timed_out - svc0.timed_out), "count");
  res.put("serve.rejected", static_cast<double>(svc1.rejected - svc0.rejected), "count");
  res.put("serve.direct_p50_us", percentile(direct.latency_us, 50), "us");
  res.put("serve.direct_p99_us", direct.p99(), "us");
  res.put("serve.wire_p50_us.low", percentile(low.latency_us, 50), "us");
  res.put("serve.wire_p50_us.high", percentile(high.latency_us, 50), "us");
  res.put("serve.wire_p99_us.low", low.p99(), "us");
  res.put("serve.wire_p99_us.high", high.p99(), "us");
  res.put("serve.wire_samples", static_cast<double>(high.latency_us.size()), "count");
  res.put("serve.publish_us.p50", median(publish), "us");
  res.put("serve.publish_us.max",
          publish.empty() ? 0 : *std::max_element(publish.begin(), publish.end()), "us");
  res.put("serve.registry_bytes", registry_bytes, "B");
  const double wire_points = static_cast<double>(net1.eval_points - net0.eval_points);
  const double high_points = static_cast<double>(high_in.total_points);
  res.put("net.overhead_p50_us",
          percentile(high.latency_us, 50) - percentile(direct.latency_us, 50), "us");
  res.put("net.encode_ns_per_point", static_cast<double>(enc_ns) / high_points, "ns");
  res.put("net.decode_ns_per_point", static_cast<double>(dec_ns) / high_points, "ns");
  res.put("net.bytes_in_per_point", static_cast<double>(net1.bytes_in - net0.bytes_in) / wire_points, "B");
  res.put("net.bytes_out_per_point", static_cast<double>(net1.bytes_out - net0.bytes_out) / wire_points, "B");
  res.put("net.frames_in_flight_peak", static_cast<double>(net1.frames_in_flight_peak), "count");
  res.put("net.pipelined_frames", static_cast<double>(net1.pipelined_frames - net0.pipelined_frames), "count");
  res.put("loadgen.lag_p99_us", percentile(high.lag_us, 99), "us");
  res.put("loadgen.sent", static_cast<double>(low.frames + high.frames + direct.frames), "count");
  res.put("loadgen.completed", static_cast<double>(low.completed + high.completed + direct.completed), "count");
  res.put("trace.overhead_frac", traced / untraced - 1, "ratio");
  res.put("trace.spans", static_cast<double>(spans.size()), "count");
  res.put("triad.gbps", triad.gbps, "GB/s");
  res.put("triad.array_mb", static_cast<double>(triad.array_bytes) / 1048576.0, "MB");
  res.put("triad.llc_mb", static_cast<double>(triad.llc_bytes) / 1048576.0, "MB");

  // One dump per workload, overwritten by its next traced run.
  const std::string dump = opts.out_dir + "/trace-" + opts.workload + ".jsonl";
  res.check(tracer.write_jsonl(dump), "write span dump " + dump);
  note("  spans written to " + dump);
}

}  // namespace perfbench
