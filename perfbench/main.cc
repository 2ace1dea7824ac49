// perfbench: one end-to-end benchmark over three workloads of the csm
// library and match service.
//
//   perfbench --workload ingest_scale|match_scale|service_open
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Each invocation runs one workload in its own process, so peak RSS and
// set-up time belong to that workload.  With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it measures the same operations once
// untraced and once traced and prints the per-layer metrics, the trace
// coverage and the tracing overhead.  Every output is checked against a
// reference; the last stdout line is the JSON result record, and the exit
// code is 0 only when every check passed.

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench.h"

namespace {

using perfbench::RunArgs;

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty();
}

/// Prints what the numbers were measured on and returns false for a build
/// whose timings would mislead (unoptimized, sanitized, invariant checks).
bool BuildGuard() {
  bool ok = true;
  std::cout << "host: nproc=" << perfbench::OnlineProcessors() << "\n";
#if defined(__clang__)
  std::cout << "compiler: clang " << __clang_version__ << "\n";
#elif defined(__GNUC__)
  std::cout << "compiler: gcc " << __VERSION__ << "\n";
#endif
#if defined(__OPTIMIZE__)
  std::cout << "build: __OPTIMIZE__ set\n";
#else
  std::cout << "build: __OPTIMIZE__ NOT set (unoptimized build)\n";
  ok = false;
#endif
#if defined(CSM_CHECKS)
  std::cout << "build: CSM_CHECKS=ON (invariant checks compiled in)\n";
  ok = false;
#else
  std::cout << "build: CSM_CHECKS=OFF\n";
#endif
#if defined(__SANITIZE_ADDRESS__)
  std::cout << "build: __SANITIZE_ADDRESS__ set\n";
  ok = false;
#endif
#if defined(__SANITIZE_THREAD__)
  std::cout << "build: __SANITIZE_THREAD__ set\n";
  ok = false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  std::cout << "build: clang sanitizer enabled\n";
  ok = false;
#endif
#endif
  if (!ok) std::cerr << "refusing to report numbers from this build\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n";
    return 2;
  }
  if (!BuildGuard()) return 3;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.workdir << ": " << ec.message() << "\n";
    return 2;
  }

  perfbench::Report report;
  if (args.workload == "ingest_scale") {
    report = perfbench::RunIngestScale(args);
  } else if (args.workload == "match_scale") {
    report = perfbench::RunMatchScale(args);
  } else if (args.workload == "service_open") {
    report = perfbench::RunServiceOpen(args);
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::cout << report.ToJson() << std::endl;
  return report.correct() ? 0 : 1;
}
