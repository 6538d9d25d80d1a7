// The benchmark's four workloads. Each one generates its inputs from the
// workload seed (`Generate`, run in its own process so the generator's
// memory never shows in the measured process), then drives the program
// through the entry points a user's path goes through and checks every
// output outside the timed region (`Run`). Both work in the current
// directory. README.md says why each workload exists and what it predicts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  // Scales the fixed op count (OpsFor); equal values give equal work.
  double seconds = 10.0;
  // Install the trace recorder, open the benchmark's spans around each
  // public call, and report the per-layer metrics instead of the
  // end-to-end ones.
  bool trace = false;
};

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // ops that errored or whose output check failed
  std::vector<Metric> metrics;
};

bool KnownWorkload(const std::string& name);

// Timed ops per run: a pure function of (workload, seconds), so every run
// with the same --seconds measures the same number of ops and the tail
// percentile (stats.h) is the same one.
size_t OpsFor(const std::string& workload, double seconds);

seqhide::Status Generate(const RunOptions& opts);
seqhide::Result<RunOutcome> Run(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
