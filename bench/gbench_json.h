// Adapter between the shared bench harness (src/eval/bench_harness.h) and
// google-benchmark binaries: the harness flags (--json/--trace-json/
// --quick/...) are peeled off argv first, everything else (--benchmark_*)
// flows through to google-benchmark, and each finished benchmark run is
// recorded as a BENCH report section.
//
// Timing: google-benchmark already repeats internally, so a run
// contributes a single per-iteration time (real_accumulated_time /
// iterations); --repeats/--warmup are accepted but do not add repetition
// on top. Counters: gbench finalizes kAvgIterations user counters to
// per-iteration values before reporting — the gbench analogue of the
// harness's per-repeat counters, deterministic regardless of how many
// iterations the timer chose, so tools/bench_compare can hold them
// bit-stable. The cumulative registry dump is left out of these reports:
// it would sum over the timer's iteration count and never reproduce.
//
// --quick injects --benchmark_min_time=0.01 (unless the caller already
// passed one), shrinking the timer budget without changing what any
// single iteration computes.

#ifndef SEQHIDE_BENCH_GBENCH_JSON_H_
#define SEQHIDE_BENCH_GBENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/eval/bench_harness.h"

namespace seqhide {
namespace bench {

// ConsoleReporter subclass that additionally captures every plain
// (non-aggregate, non-errored) run as a BenchSection on the harness.
class GbenchSectionReporter : public benchmark::ConsoleReporter {
 public:
  explicit GbenchSectionReporter(BenchHarness* harness)
      : harness_(harness) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type != Run::RT_Iteration) continue;
      BenchSection section;
      section.name = run.benchmark_name();
      double per_iter_ns =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9
              : 0.0;
      uint64_t ns = static_cast<uint64_t>(per_iter_ns);
      section.timing.repeats = 1;
      section.timing.median_ns = ns;
      section.timing.min_ns = ns;
      section.timing.max_ns = ns;
      section.timing.mean_ns = per_iter_ns;
      for (const auto& [name, counter] : run.counters) {
        // Rate counters (items_per_second & co.) are timing-derived and
        // never bit-stable; only plain counters enter the deterministic
        // comparison set.
        if (counter.flags & benchmark::Counter::kIsRate) continue;
        section.counters[name] = counter.value;
      }
      harness_->AddSection(std::move(section));
    }
  }

 private:
  BenchHarness* harness_;
};

// Shared main body for google-benchmark binaries. `after_run` (optional)
// runs after the benchmarks finish, before the BENCH report is written —
// bench_kernels uses it to print the cumulative obs counter dump.
inline int RunGoogleBenchmark(std::string_view bench_name, int argc,
                              char** argv,
                              const std::function<void()>& after_run = {}) {
  Result<BenchConfig> config =
      ParseBenchArgs(bench_name, &argc, argv, /*allow_unknown=*/true);
  if (!config.ok()) {
    std::cerr << "error: " << config.status() << "\n"
              << BenchUsage(bench_name)
              << "  --benchmark_* flags pass through to google-benchmark\n";
    return 1;
  }
  if (config->help) {
    std::cout << BenchUsage(bench_name)
              << "  --benchmark_* flags pass through to google-benchmark\n";
    return 0;
  }

  std::vector<char*> args(argv, argv + argc);
  std::string min_time_flag = "--benchmark_min_time=0.01";
  if (config->quick) {
    bool has_min_time = false;
    for (char* arg : args) {
      if (std::string_view(arg).rfind("--benchmark_min_time", 0) == 0) {
        has_min_time = true;
      }
    }
    if (!has_min_time) args.push_back(min_time_flag.data());
  }
  int gargc = static_cast<int>(args.size());
  benchmark::Initialize(&gargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(gargc, args.data())) return 1;

  BenchHarness harness(*std::move(config));
  GbenchSectionReporter reporter(&harness);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (after_run) after_run();
  return harness.Finish(/*registry_dump=*/false);
}

}  // namespace bench
}  // namespace seqhide

#endif  // SEQHIDE_BENCH_GBENCH_JSON_H_
