// Shared benchmark harness: repeat/warmup control, steady-clock timing
// with median/min/max/mean/stddev aggregation, environment capture, and
// machine-readable BENCH_<name>.json emission.
//
// Every bench binary in bench/ wraps itself in a BenchHarness so the
// repo's perf trajectory is measurable instead of eyeballable: a run
// with `--json FILE` emits a versioned JSON document whose schema is
// shared with the --stats-json reports (src/obs/stats_json.h), embedding
// both the per-section timing statistics and the obs counter registry —
// DP cell counts travel with the timings, so tools/bench_compare can
// separate "got slower" from "does different work".
//
// Flags accepted by every harness-wrapped binary:
//   --json FILE        write the BENCH report (schema below)
//   --trace-json FILE  write a Chrome trace-event file of the run's spans
//   --repeats N        measured repetitions per section (default 3)
//   --warmup N         unmeasured warmup runs per section (default 1)
//   --quick            repeats=1, warmup=0 (CI mode; explicit --repeats/
//                      --warmup still override)
//   --help             usage
//
// Deterministic counters are reported *per repeat* (a section's counter
// delta divided by its repeat count): every measured repeat performs
// identical work, so the per-repeat value is independent of the
// repeat/quick configuration and must be bit-stable across machines.
// tools/bench_compare exploits exactly that.
//
// BENCH JSON schema (bench_schema_version 1):
//   {
//     "schema_version": 1, "kind": "bench", "name": "<bench>",
//     "environment": {"compiler", "build_type", "git_sha", "cpu_count",
//                     "observability"},
//     "config": {"repeats", "warmup", "quick"},
//     "sections": [{"name", "repeats", "median_ns", "min_ns", "max_ns",
//                   "mean_ns", "stddev_ns",
//                   "counters": {name: per-repeat value}}, ...],
//     "memory": {"current_rss_bytes", "peak_rss_bytes",
//                "pools": {"dp_scratch": {...}, "kernel_tables": {...}}},
//     "counters": {...}, "gauges": {...}, "spans": {...},
//     "histograms": {...}        // cumulative registry dump; absent in
//                                // google-benchmark reports
//   }
//
// The memory block's pool peaks are deterministic for deterministic
// workloads (exact bytes charged by the instrumented allocators); the
// RSS numbers are OS-dependent and never compared.

#ifndef SEQHIDE_EVAL_BENCH_HARNESS_H_
#define SEQHIDE_EVAL_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry/mem_tracker.h"
#include "src/obs/trace_events.h"

namespace seqhide {
namespace bench {

struct BenchConfig {
  std::string bench_name;
  size_t repeats = 3;
  size_t warmup = 1;
  bool quick = false;
  bool help = false;  // --help was passed; caller prints usage and exits
  std::string json_path;
  std::string trace_json_path;
};

// Parses the harness flags out of argv, compacting argv in place so that
// unparsed arguments (if `allow_unknown`, e.g. google-benchmark's own
// flags) stay available to the caller. With `allow_unknown` false, any
// leftover argument is an error. argv[0] is preserved.
Result<BenchConfig> ParseBenchArgs(std::string_view bench_name, int* argc,
                                   char** argv, bool allow_unknown = false);

// One line per flag, for --help and flag-error messages.
std::string BenchUsage(std::string_view bench_name);

struct TimingStats {
  size_t repeats = 0;
  uint64_t median_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
  double mean_ns = 0.0;
  double stddev_ns = 0.0;  // population stddev; 0 for a single repeat
};

// Aggregates raw per-repeat samples. Median of an even count is the mean
// of the middle pair, rounded down to whole nanoseconds.
TimingStats ComputeTimingStats(std::vector<uint64_t> samples_ns);

struct BenchSection {
  std::string name;
  TimingStats timing;
  // Per-repeat deltas of the obs counters this section moved. Doubles so
  // google-benchmark per-iteration counters fit the same schema; values
  // derived from deterministic work must be bit-stable.
  std::map<std::string, double> counters;
};

struct BenchEnvironment {
  std::string compiler;    // e.g. "gcc 12.2.0"
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  std::string git_sha;     // short SHA at configure time, "unknown" if none
  uint32_t cpu_count = 0;
  bool observability = false;  // SEQHIDE_ENABLE_OBSERVABILITY compiled in

  static BenchEnvironment Capture();
};

struct BenchReport {
  std::string name;
  BenchEnvironment environment;
  BenchConfig config;
  std::vector<BenchSection> sections;
  // The process-wide cumulative registry dump (top-level counters,
  // gauges, spans, histograms); absent for google-benchmark binaries.
  std::optional<obs::MetricsSnapshot> registry;
  // Captured by Finish() after the last section: peak RSS plus the
  // instrumented allocator pools (DP scratch, kernel tables).
  obs::telemetry::MemorySnapshot memory;
};

std::string BenchReportToJson(const BenchReport& report);
Status WriteBenchReportJson(const BenchReport& report,
                            const std::string& path);

// Context passed to a measured section body, so interleaved
// compute-and-print benches can restrict their printing to the final
// measured repeat (`last`) instead of repeating it.
struct SectionRun {
  size_t repeat = 0;   // 0-based, over warmup then measured runs
  size_t repeats = 1;  // measured repeats
  bool warmup = false;
  bool last = false;   // true on the final measured repeat
};

// Buffers a section body's console output and flushes it only on the
// final measured repeat, so a compute-and-print bench does not repeat
// its table once per warmup/repeat. The printed numbers must be
// deterministic across repeats for this to be sound.
class SectionOutput {
 public:
  explicit SectionOutput(const SectionRun& run) : enabled_(run.last) {}
  ~SectionOutput() {
    if (enabled_) std::cout << buf_.str();
  }
  SectionOutput(const SectionOutput&) = delete;
  SectionOutput& operator=(const SectionOutput&) = delete;

  std::ostream& out() { return buf_; }

 private:
  std::ostringstream buf_;
  bool enabled_;
};

class BenchHarness {
 public:
  // Parses argv. On a flag error, prints the usage to stderr and exits 1;
  // on --help, prints it to stdout and exits 0 (bench binaries have no
  // one to return a Status to). Installs a trace recorder for the whole
  // run when --trace-json was given.
  BenchHarness(std::string_view bench_name, int argc, char** argv);
  // Adopts a pre-parsed config (the google-benchmark adapter path).
  explicit BenchHarness(BenchConfig config);
  ~BenchHarness();

  BenchHarness(const BenchHarness&) = delete;
  BenchHarness& operator=(const BenchHarness&) = delete;

  const BenchConfig& config() const { return config_; }
  const std::vector<BenchSection>& sections() const { return sections_; }

  // Runs `fn` warmup + repeats times, timing each measured repeat on the
  // steady clock and attributing the per-repeat obs counter deltas
  // (measured across the non-warmup runs only) to the section.
  void MeasureSection(std::string_view name,
                      const std::function<void(const SectionRun&)>& fn);
  void MeasureSection(std::string_view name,
                      const std::function<void()>& fn);

  // For adapters that measure elsewhere (google-benchmark).
  void AddSection(BenchSection section);

  // Writes the --json / --trace-json outputs if requested. Returns the
  // process exit code (0, or 2 when an output file cannot be written).
  // `registry_dump` adds the cumulative registry to the report. The
  // google-benchmark adapter passes false: there the totals would sum
  // over however many iterations the timer chose.
  int Finish(bool registry_dump = true);

 private:
  BenchConfig config_;
  std::vector<BenchSection> sections_;
  std::unique_ptr<obs::TraceEventRecorder> recorder_;
  bool finished_ = false;
};

}  // namespace bench
}  // namespace seqhide

#endif  // SEQHIDE_EVAL_BENCH_HARNESS_H_
