// perfbench: the repository benchmark driver.
//
//   perfbench --workload compress|query|serve --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Human-readable lines go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit code 0 when
// every checked output was correct, 1 when any was wrong or failed (the
// JSON line is still printed), 2 on bad arguments or an aborted run (no
// JSON line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compress|query|serve --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
}

bool parse(int argc, char** argv, perfbench::Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!parse(argc, argv, opts)) {
    usage();
    return 2;
  }
  perfbench::Result res;
  try {
    perfbench::run_workload(opts, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 2;
  }
  // Failures go to both streams: stderr is what a harness keeps of a run.
  for (const std::string& f : res.failures) {
    std::printf("perfbench: FAILED %s\n", f.c_str());
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  const bool correct = res.failed == 0 && res.attempted > 0;
  std::printf("perfbench: %llu checked, %llu failed (failed_share %.6g)\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              res.attempted ? static_cast<double>(res.failed) /
                                  static_cast<double>(res.attempted)
                            : 0.0);
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
