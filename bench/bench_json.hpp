// Shared `--json <path>` reporter flag for the bench binaries.
//
// The committed BENCH_*.json baselines (see docs/PERFORMANCE.md) and the
// CI bench-smoke job both consume machine-readable bench output. Google
// Benchmark already ships a JSON file reporter behind the unwieldy pair
// `--benchmark_out=<path> --benchmark_out_format=json`; this header maps
// the ergonomic `--json <path>` (or `--json=<path>`) spelling onto it and
// provides the common main() used by every bench that records baselines:
//
//   bench_bus_publish --json out.json [--benchmark_filter=...]
//
// Everything else on the command line passes through to the library
// untouched, so the usual --benchmark_* flags keep working.
//
// The figure benches also print behavioural shape checks (the paper's
// claims, e.g. "SESAME availability > baseline"). Each goes through
// shape_check(), and run_main() exits 1 when any of them failed, so
// `bench_fig5_battery_failure --benchmark_filter=^$` is a claim test.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace sesame::bench {

/// Labels of the shape checks that failed so far in this process.
inline std::vector<std::string>& failed_shape_checks() {
  static std::vector<std::string> failed;
  return failed;
}

/// Records one behavioural shape check and returns its printed verdict,
/// "PASS" or "FAIL". Only behaviour belongs here, never wall-clock time.
inline const char* shape_check(const char* label, bool ok) {
  if (!ok) failed_shape_checks().emplace_back(label);
  return ok ? "PASS" : "FAIL";
}

/// Rewrites `--json <path>` / `--json=<path>` into the library's
/// out-file flags, leaving every other argument in place. Returns the
/// rewritten argument vector; `storage` owns the rewritten strings and
/// must outlive it.
inline std::vector<char*> rewrite_json_flag(int argc, char** argv,
                                            std::vector<std::string>& storage) {
  // Pointers into `storage` must stay stable while we append.
  storage.reserve(static_cast<std::size_t>(argc) + 2);
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  if (argc > 0) args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string path;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
      continue;
    }
    storage.push_back("--benchmark_out=" + path);
    args.push_back(storage.back().data());
    storage.push_back("--benchmark_out_format=json");
    args.push_back(storage.back().data());
  }
  return args;
}

/// Drop-in replacement for BENCHMARK_MAIN()'s body with `--json` support.
/// Returns 1 when a shape check failed, naming each on stderr.
inline int run_main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args = rewrite_json_flag(argc, argv, storage);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (const std::string& label : failed_shape_checks()) {
    std::fprintf(stderr, "shape check FAILED: %s\n", label.c_str());
  }
  return failed_shape_checks().empty() ? 0 : 1;
}

}  // namespace sesame::bench
