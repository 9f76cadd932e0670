// Shared declarations of the benchmark driver.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< scratch files and the span dump go here
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything a run reports. attempted/failed count checked operations: a
/// wrong answer, a refused request and a failed call are all failures.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Runs one workload (compress, query or serve) and fills `result` with the
/// end-to-end metrics, or with the per-layer metrics when opts.trace.
void run_workload(const Options& opts, Result& result);

/// STREAM-style triad a[i] = b[i] + s * c[i] over arrays of at least four
/// times the last-level cache, `threads` OpenMP threads, best of 5 passes.
struct TriadResult {
  double gbps = 0;  ///< 3 arrays * 8 B per element / best pass time
  std::size_t array_bytes = 0;
  std::size_t llc_bytes = 0;
};
TriadResult measure_triad(int threads);

}  // namespace perfbench
