// The IQS benchmark program. One invocation runs one workload:
//
//   iqs_perfbench --workload <appendix_c_wire|fleet_mix|fleet_churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--scale full|tiny] [--spans-out <file>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// the last line of standard output is the JSON result. perfbench/run.py
// builds this binary from source and forwards its arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: iqs_perfbench --workload "
               "<appendix_c_wire|fleet_mix|fleet_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--spans-out <file>]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto workload = perfbench::ParseWorkload(value);
      if (!workload) return Usage(("unknown workload " + value).c_str());
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value == "tiny") {
        options.scale = perfbench::Scale::Tiny();
      } else if (value != "full") {
        return Usage("--scale takes full or tiny");
      }
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  return perfbench::RunBenchmark(options);
}
