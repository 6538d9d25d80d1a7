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

#ifndef SEQHIDE_HIDE_LOCAL_H_
#define SEQHIDE_HIDE_LOCAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/match/scratch.h"
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
// pattern language. Each round `deltas(&d)` fills δ for every position of
// the row and returns false when a DP table was refused (the loop stops
// and sets result->exhausted); then one position with δ > 0 is chosen —
// argmax δ for kHeuristic (ties toward the smallest index), uniformly at
// random for kRandom — and `mark(pos)` marks it, returning the marks it
// made. The loop ends when no position is involved in a matching.
template <class Deltas, class Mark>
void MarkRounds(LocalStrategy strategy, Rng* rng, const Deltas& deltas,
                const Mark& mark, LocalSanitizeResult* result) {
  // Hoisted out of the round loop: after the first round these only ever
  // get reassigned, never reallocated.
  std::vector<uint64_t> d;
  std::vector<size_t> candidates;
  for (;;) {
    if (!deltas(&d)) {
      result->exhausted = true;
      break;
    }
    // Positions involved in at least one matching ("reasonable choices").
    candidates.clear();
    uint64_t best_delta = 0;
    size_t best_pos = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      if (d[i] == 0) continue;
      candidates.push_back(i);
      if (d[i] > best_delta) {
        best_delta = d[i];
        best_pos = i;
      }
    }
    if (candidates.empty()) break;  // M_{S_h}^T = ∅ — sanitized.
    const size_t chosen =
        strategy == LocalStrategy::kHeuristic
            ? best_pos
            : candidates[static_cast<size_t>(
                  rng->NextBounded(candidates.size()))];
    result->marks_introduced += mark(chosen);
    result->marked_positions.push_back(chosen);
  }
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
