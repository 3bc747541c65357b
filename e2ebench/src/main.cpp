// SESAME end-to-end benchmark: the program that run.py builds and runs.
//
//   e2ebench --workload <paper_campaigns|fleet_1024|service_mix>
//            --seed <n> --seconds <s> --trace <0|1>
//            --digests <pinned digest table> --out-dir <span dump dir>
//   e2ebench --pin --digests <file>
//
// Prints the workload's metrics by name with their unit, then, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 1 when any output was wrong or any operation
// failed, 2 on a usage or set-up error (without a result line).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<paper_campaigns|fleet_1024|service_mix> --seed N --seconds S "
               "--trace 0|1 --digests FILE --out-dir DIR\n"
               "       e2ebench --pin --digests FILE\n",
               why);
  return 2;
}

void print_json_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  std::string workload;
  bool pin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--pin") {
      pin = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      options.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(v);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--digests") {
      options.digests_path = v;
    } else if (arg == "--out-dir") {
      options.out_dir = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    if (pin) {
      if (options.digests_path.empty()) return usage("--pin needs --digests");
      const std::size_t n = e2ebench::pin_digests(options.digests_path);
      std::printf("pinned %zu campaign digests in %s\n", n,
                  options.digests_path.c_str());
      return 0;
    }
    if (options.digests_path.empty() || options.out_dir.empty()) {
      return usage("--digests and --out-dir are required");
    }
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

    e2ebench::WorkloadResult r;
    if (e2ebench::is_campaign_workload(workload)) {
      r = e2ebench::run_campaign_workload(workload, options);
    } else if (workload == "service_mix") {
      r = e2ebench::run_service_mix(options);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }

    for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
    for (const auto& m : r.metrics) {
      std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const double error_rate =
        r.attempted == 0 ? 1.0
                         : static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted);
    std::printf("%-26s %.6g ratio (%llu of %llu)\n", "error_rate", error_rate,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto& e : r.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                  r.metrics[i].name.c_str());
      print_json_number(r.metrics[i].value);
      std::printf(", \"unit\": \"%s\"}", r.metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
