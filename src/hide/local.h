// Local stage of the sanitization algorithm (paper §4): given one sequence
// T with M_{S_h}^T ≠ ∅, choose positions to mark until M_{S_h}^T = ∅.
//
// Heuristic strategy: mark argmax_i δ(T[i]) (the position involved in the
// most matchings), recompute, repeat — the paper's Sanitize(T, S_h).
// Random strategy: mark a uniformly random position among those involved
// in at least one matching (δ > 0).
//
// Termination: every chosen position has δ > 0, so each mark removes at
// least one matching and the (finite) matching count strictly decreases.
//
// δ is summed over patterns, δ_{S_h}(T[i]) = Σ_p δ_p(T[i]), and a round
// refreshes only the patterns the last mark touched. A mark at position i
// (Δ, or the itemset language's item removal) only removes matchings that
// use i and creates none. So when δ_p(i) = 0 no matching of p used i, M_p
// is unchanged, and so is δ_p at every position: only the patterns with
// δ_p(i) > 0 need new tables. This holds under saturation too. Every DP
// value is min(exact count, 2⁶⁴−1), since SatAdd and SatMul of
// non-negative terms saturate exactly where the exact sum or product
// passes 2⁶⁴−1, and a saturated value is never 0. So δ_p(i) reads 0
// exactly when no matching uses i, and an unchanged M_p gives the same
// saturated δ_p. Argmax, tie-breaks and the Random candidate list are
// those of recomputing every pattern every round.

#ifndef SEQHIDE_HIDE_LOCAL_H_
#define SEQHIDE_HIDE_LOCAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/obs/macros.h"
#include "src/seq/sequence.h"

namespace seqhide {

// Outcome of sanitizing one sequence.
struct LocalSanitizeResult {
  size_t marks_introduced = 0;
  // Positions marked, in the order chosen (useful for audits and tests).
  std::vector<size_t> marked_positions;
  // True when the scratch's memory budget refused a DP table, so the loop
  // stopped early and the sequence may still hold matchings. Marks made
  // before the refusal are kept (they never hurt). The caller decides how
  // to degrade; see RunBudget in options.h.
  bool exhausted = false;
};

// The local round loop (the paper's Sanitize(T, S_h)), shared by every
// pattern language. `deltas(p, &d)` fills δ_p for every position of the
// row and returns false when a DP table was refused (the loop stops and
// sets result->exhausted). The first round fills every pattern; a later
// one refills only those with δ_p > 0 at the last marked position and
// reuses the rest (see the top of this file), then sums the total with
// SatAdd. One position with total δ > 0 is chosen — argmax for
// kHeuristic (ties toward the smallest index), uniformly at random for
// kRandom — and `mark(pos)` marks it, returning the marks it made. The
// loop ends when no position is involved in a matching. The δ vectors are
// allocated once per call (|S_h| × |T| words), never per round.
template <class Deltas, class Mark>
void MarkRounds(LocalStrategy strategy, Rng* rng, size_t num_patterns,
                const Deltas& deltas, const Mark& mark,
                LocalSanitizeResult* result) {
  std::vector<std::vector<uint64_t>> d(num_patterns);  // δ_p, last filled
  std::vector<char> stale(num_patterns, 1);
  std::vector<uint64_t> total;
  std::vector<size_t> candidates;
  for (;;) {
    SEQHIDE_COUNTER_INC("local.delta_recomputations");
    size_t reused = 0;
    bool refused = false;
    for (size_t p = 0; p < num_patterns && !refused; ++p) {
      if (!stale[p]) {
        ++reused;
        continue;
      }
      refused = !deltas(p, &d[p]);
      stale[p] = 0;
    }
    SEQHIDE_COUNTER_ADD("local.delta_reused", reused);
    if (refused) {
      result->exhausted = true;
      break;
    }
    total.assign(num_patterns == 0 ? 0 : d[0].size(), 0);
    for (const std::vector<uint64_t>& dp : d) {
      for (size_t i = 0; i < total.size(); ++i) {
        total[i] = SatAdd(total[i], dp[i]);
      }
    }
    // Positions involved in at least one matching ("reasonable choices").
    candidates.clear();
    uint64_t best_delta = 0;
    size_t best_pos = 0;
    for (size_t i = 0; i < total.size(); ++i) {
      if (total[i] == 0) continue;
      candidates.push_back(i);
      if (total[i] > best_delta) {
        best_delta = total[i];
        best_pos = i;
      }
    }
    if (candidates.empty()) break;  // M_{S_h}^T = ∅ — sanitized.
    const size_t chosen =
        strategy == LocalStrategy::kHeuristic
            ? best_pos
            : candidates[static_cast<size_t>(
                  rng->NextBounded(candidates.size()))];
    // A mark leaves its position in no matching, so no position is chosen
    // twice and a row takes at most |T| rounds. A δ_p reused after p lost
    // matchings would choose a marked position again, and forever.
    SEQHIDE_CHECK_LT(result->marked_positions.size(), total.size())
        << "more marking rounds than positions";
    for (size_t p = 0; p < num_patterns; ++p) stale[p] = d[p][chosen] > 0;
    result->marks_introduced += mark(chosen);
    result->marked_positions.push_back(chosen);
  }
  SEQHIDE_COUNTER_ADD("local.marks", result->marks_introduced);
  SEQHIDE_HISTOGRAM_RECORD("local.marks_per_sequence",
                           result->marks_introduced);
}

// Destroys every (constrained) matching of every pattern in `patterns`
// within *seq by marking positions per `strategy`. `constraints` is empty
// (all unconstrained) or parallel to `patterns`. `rng` is required only
// for LocalStrategy::kRandom and may be null otherwise.
LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng);

// Scratch-reusing variant: δ recomputation (the per-round dominant cost)
// runs allocation-free once *scratch is warm. One scratch per thread; the
// pipeline's mark stage hands each worker its own.
LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng, MatchScratch* scratch);

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_LOCAL_H_
