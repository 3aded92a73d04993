// ctebench: one binary, three workloads against ctesim's public APIs.
//
//   ctebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <path>]
//
// Prints a human-readable report (environment, every metric by name and
// unit, each correctness check, the output digest) and, as its last line,
// one JSON object with every metric it measured. ctebench/run.py builds
// this binary and narrows that object to the metric set BENCHMARK.json
// names for the chosen --trace mode.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "util/hash.h"
#include "util/log.h"

namespace {

using ctebench::Args;
using ctebench::Result;

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "ctebench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      std::fprintf(stderr, "ctebench: unknown option %s\n", flag.c_str());
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ctebench --workload batch_cluster|apps|server_mix"
                 " --seed N --seconds S --trace 0|1 [--spans P]\n");
    return 2;
  }
  std::printf("ctebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("env: build=%s compiler=\"%s\" nproc=%u server_workers=%d "
              "client_connections=%d\n",
              CTEBENCH_BUILD_TYPE, CTEBENCH_COMPILER,
              std::thread::hardware_concurrency(), ctebench::kServerWorkers,
              ctebench::kClientConnections);
  std::fflush(stdout);
  // Wall-time-kill warnings are expected model output in these studies;
  // keep stderr for errors and their formatting out of the timed ops.
  ctesim::log::set_threshold(ctesim::log::Level::kError);

  Result result;
  try {
    if (args.workload == "batch_cluster") {
      result = ctebench::run_batch_cluster(args);
    } else if (args.workload == "apps") {
      result = ctebench::run_apps(args);
    } else if (args.workload == "server_mix") {
      result = ctebench::run_server_mix(args);
    } else {
      std::fprintf(stderr, "ctebench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ctebench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  result.add("peak_rss_mb", ctebench::peak_rss_mb(), "MB");

  std::printf("metrics:\n");
  for (const auto& m : result.metrics) {
    ctebench::print_line(m.name, m.value, m.unit);
  }
  const double failed_share = static_cast<double>(result.failed) /
                              static_cast<double>(result.attempted);
  ctebench::print_line("failed_share", failed_share, "share");
  for (const auto& why : result.failures) {
    std::printf("check FAILED: %s\n", why.c_str());
  }
  if (result.failures.empty()) std::printf("checks: all passed\n");
  std::printf("digest %s: %s\n", args.workload.c_str(),
              ctesim::hash_hex(result.digest).c_str());

  const bool correct = result.failures.empty() && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
