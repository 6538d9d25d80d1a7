// Option types for the sanitization algorithm (paper §4, §6).
//
// The paper's evaluation crosses two orthogonal strategy choices:
//   * local  — how positions are picked inside one sequence;
//   * global — which sequences get sanitized when ψ > 0;
// yielding HH, HR, RH, RR (Heuristic/Random at each level). The extra
// global orderings implement the "other alternative heuristics" sketched
// in the paper's future work (§8) and feed the ablation bench.

#ifndef SEQHIDE_HIDE_OPTIONS_H_
#define SEQHIDE_HIDE_OPTIONS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace seqhide {

// Resource budget for one Sanitize() run. All limits default to
// "unlimited"; a default-constructed budget changes nothing. Budgets are
// checked at stage boundaries and between marking rounds (see
// SanitizeOptions::mark_round_size), never mid-kernel, so a run can
// overshoot a deadline by at most one round — that granularity is the
// price of keeping the hot loops check-free and the output deterministic.
// On exhaustion the pipeline stops marking, still verifies, and returns a
// *degraded* report (SanitizeReport::degraded) listing the patterns still
// exposed; it does not return an error.
struct RunBudget {
  // Wall-clock deadline in seconds from Sanitize() entry; 0 = none.
  // Exceeding it stops the run with StatusCode::kDeadlineExceeded.
  double deadline_seconds = 0.0;
  // Ceiling on any single DP table allocated by the mark stage, in bytes;
  // 0 = none. A victim whose tables would exceed it is skipped (marks
  // already made are kept) and the run degrades with
  // StatusCode::kResourceExhausted. Deterministic: table sizes are a pure
  // function of the input, so the same victims are skipped at any thread
  // count.
  size_t max_table_bytes = 0;
  // Maximum number of marking rounds (of mark_round_size victims each);
  // 0 = unlimited. Exceeding it degrades with kResourceExhausted.
  size_t max_mark_rounds = 0;
  // Optional cooperative cancellation flag, polled at the same boundaries
  // as the deadline. The caller owns the atomic and may set it from any
  // thread; the run degrades with StatusCode::kCancelled.
  const std::atomic<bool>* cancel = nullptr;

  bool Enabled() const {
    return deadline_seconds > 0.0 || max_table_bytes > 0 ||
           max_mark_rounds > 0 || cancel != nullptr;
  }
};

enum class LocalStrategy {
  // Paper's local heuristic: repeatedly mark the position involved in the
  // most matchings (argmax δ), until no matching remains.
  kHeuristic,
  // Baseline: mark a uniformly random position among those involved in at
  // least one matching (the "reasonable choices" of §6).
  kRandom,
  // Exact minimum-mark sanitization via branch and bound (the NP-hard
  // optimum of §3.2). Exponential worst case — for evaluation and
  // ablation on short sequences, not production use.
  kExhaustive,
};

enum class GlobalStrategy {
  // Paper's global heuristic: ascending matching-set size; the ψ sequences
  // with the largest matching sets are left untouched.
  kHeuristic,
  // Baseline: a uniformly random subset of the supporting sequences is
  // left untouched.
  kRandom,
  // §8 future-work alternative: prefer sanitizing short sequences (they
  // potentially support fewer subsequences, so marking them destroys less).
  kAscendingLength,
  // §8 future-work alternative: prefer sanitizing highly auto-correlated
  // sequences (few distinct symbols relative to length => few distinct
  // subsequences at risk).
  kHighAutocorrelationFirst,
};

std::string ToString(LocalStrategy s);
std::string ToString(GlobalStrategy s);

struct SanitizeOptions {
  LocalStrategy local = LocalStrategy::kHeuristic;
  GlobalStrategy global = GlobalStrategy::kHeuristic;

  // Disclosure threshold ψ: every sensitive pattern must end with support
  // <= psi in the sanitized database (Problem 1, requirement 1).
  size_t psi = 0;

  // Multiple disclosure thresholds (paper §8 future work). When non-empty
  // it must be parallel to the pattern list and overrides `psi`:
  // sup_{D'}(S_i) <= per_pattern_psi[i] for each i.
  std::vector<size_t> per_pattern_psi;

  // Seed for the Random strategies; two runs with equal seeds and inputs
  // are identical.
  uint64_t seed = 1;

  // When true, Sanitize() re-checks the disclosure requirement on exit and
  // returns Internal on violation (a sanity net; costs one support scan).
  bool verify = true;

  // Efficiency knobs (paper §8 lists large-dataset efficiency as future
  // work; these do not change any result, only wall time):
  //
  // Upper bound on worker threads for the parallel pipeline stages
  // (count, mark, verify — sequences are row-partitioned and
  // independent). 0 = auto: use every hardware thread. Values above
  // common/thread_pool.h's kMaxThreads are rejected by Validate() — they
  // are always a configuration bug, not a real machine. Output is
  // bit-identical for any thread count: chunk boundaries are a pure
  // function of the input size, per-row results go to per-row slots, and
  // the Random local strategy derives a per-sequence generator from
  // `seed` and the sequence's index.
  size_t num_threads = 1;

  // Resource limits; default = unlimited (see RunBudget above).
  RunBudget budget;

  // Victims are marked in rounds of this many sequences; budget checks,
  // fault-injection sites, and periodic checkpoints sit between rounds.
  // The default is large enough that round bookkeeping is invisible in
  // the benches yet small enough for useful deadline granularity. Purely
  // an execution knob: any value produces the identical database.
  size_t mark_round_size = 256;

  // When non-empty, a crash-safe checkpoint of pipeline state is written
  // to this path after victim selection, every checkpoint_every_rounds
  // marking rounds, and on a budget stop; a successful run deletes it.
  // See src/hide/checkpoint.h for the format.
  std::string checkpoint_path;
  size_t checkpoint_every_rounds = 1;

  // Resume from checkpoint_path if it exists (falls back to a fresh run
  // when the file is missing; fails on a corrupt or mismatched one). The
  // resumed run's database, report, and metrics are byte-identical to an
  // uninterrupted run with the same options at any thread count.
  bool resume = false;

  // InvalidArgument for nonsensical settings (num_threads > kMaxThreads,
  // zero round sizes, resume without a checkpoint path, negative
  // deadline). Sanitize() calls this; CLI/bench code can call it early
  // for a better error location.
  Status Validate() const;

  // Shorthand constructors for the paper's four named algorithms.
  static SanitizeOptions HH() { return SanitizeOptions{}; }
  static SanitizeOptions HR(uint64_t seed = 1);
  static SanitizeOptions RH(uint64_t seed = 1);
  static SanitizeOptions RR(uint64_t seed = 1);
};

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_OPTIONS_H_
