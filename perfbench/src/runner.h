#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kAppendixCWire;
  uint64_t seed = 1;
  double seconds = 10.0;
  // false: the end-to-end run (tracing off). true: the traced run that
  // reports the per-layer metrics.
  bool trace = false;
  Scale scale = Scale::Full();
  // Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

// Runs one benchmark invocation, prints every metric by name with its
// unit and sample count, and ends standard output with one JSON object
// {"correct", "attempted", "failed", "metrics"}. Returns the process exit
// code: 0 when every answer matched its reference, 1 when any query
// failed or answered wrongly, 2 when set-up failed (nothing printed on
// standard output then).
int RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
