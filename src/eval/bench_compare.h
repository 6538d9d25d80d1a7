// Perf-regression comparator over BENCH_*.json reports (emitted by the
// bench harness, src/eval/bench_harness.h).
//
// Two regression classes, with different tolerances:
//   * Timings are noisy: a section regresses only when its candidate
//     median exceeds the baseline median by BOTH a relative threshold
//     and an absolute floor. `counters_only` disables timing judgments
//     entirely (shared CI runners).
//   * Deterministic counters (DP cells, marks, δ recomputations — the
//     per-repeat section counters) must be bit-stable: *any* difference,
//     including a counter or section appearing or disappearing, is a
//     drift finding. Intentional changes are ratified by refreshing
//     bench/baselines/ in the same PR.
//   * Instrumented pool peaks (the report-level memory block's
//     dp_scratch / kernel_tables peak_bytes) regress like timings — over
//     a relative threshold — but only when BOTH reports carry a memory
//     block and timings are being judged (pool peaks are exact bytes,
//     but chunking and thread count move them, so shared CI runners in
//     counters_only mode skip them). RSS is never compared.
//
// Sections present in the baseline but not run by the candidate are
// skipped (CI runs reduced subsets); candidate files drive directory
// comparison the same way.

#ifndef SEQHIDE_EVAL_BENCH_COMPARE_H_
#define SEQHIDE_EVAL_BENCH_COMPARE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace seqhide {
namespace bench {

struct CompareOptions {
  // A section's median must be over threshold * baseline AND more than
  // the absolute floor slower to count as a timing regression.
  double time_threshold = 0.30;
  uint64_t time_min_delta_ns = 1'000'000;
  // A pool's candidate peak_bytes must exceed baseline * (1 + threshold)
  // to count as a memory regression. Only applied when both reports have
  // a memory block (older baselines lack one) and not counters_only.
  double mem_threshold = 0.50;
  // Ignore timings entirely; compare only deterministic counters.
  bool counters_only = false;
};

enum class FindingKind {
  kTimeRegression,
  kMemoryRegression,
  kCounterDrift,
  kSectionMissing,  // candidate section with no baseline counterpart
  kFileMissing,     // candidate BENCH file with no baseline counterpart
  kSchemaError,
};

const char* FindingKindName(FindingKind kind);

struct CompareFinding {
  FindingKind kind;
  std::string bench;    // bench name (file stem)
  std::string section;  // empty for file-level findings
  std::string detail;   // human-readable explanation with the numbers
};

struct CompareResult {
  std::vector<CompareFinding> findings;
  std::string table;  // paper-style per-section delta table
  size_t files_compared = 0;
  size_t sections_compared = 0;
  size_t counters_compared = 0;

  bool ok() const { return findings.empty(); }
  // Findings and counts of another comparison appended (directory mode).
  void Merge(CompareResult other);
};

// Compares two BENCH JSON documents (already-read file contents).
// Parse/schema problems are reported as kSchemaError findings, not
// statuses — a corrupt report must fail the comparison, not crash it.
CompareResult CompareBenchReports(const std::string& baseline_json,
                                  const std::string& candidate_json,
                                  const CompareOptions& options);

// Compares two files, or every BENCH_*.json of a candidate directory
// against the same-named file in a baseline directory. Returns a status
// only for argument-level problems (paths that do not exist, or a
// file/directory mix).
Result<CompareResult> CompareBenchPaths(const std::string& candidate_path,
                                        const std::string& baseline_path,
                                        const CompareOptions& options);

}  // namespace bench
}  // namespace seqhide

#endif  // SEQHIDE_EVAL_BENCH_COMPARE_H_
