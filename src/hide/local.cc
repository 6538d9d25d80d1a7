#include "src/hide/local.h"

#include "src/common/logging.h"
#include "src/hide/hitting_set.h"
#include "src/match/position_delta.h"
#include "src/obs/macros.h"

namespace seqhide {

LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng) {
  MatchScratch scratch;
  return SanitizeSequence(seq, patterns, constraints, strategy, rng, &scratch);
}

LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng, MatchScratch* scratch) {
  SEQHIDE_CHECK(seq != nullptr);
  SEQHIDE_CHECK(strategy != LocalStrategy::kRandom || rng != nullptr)
      << "the Random local strategy needs an Rng";

  LocalSanitizeResult result;
  if (strategy == LocalStrategy::kExhaustive) {
    OptimalSanitization optimal =
        OptimalSanitizeSequence(*seq, patterns, constraints);
    for (size_t pos : optimal.positions) seq->Mark(pos);
    result.marked_positions = optimal.positions;
    result.marks_introduced = optimal.num_marks;
    SEQHIDE_COUNTER_ADD("local.marks", result.marks_introduced);
    SEQHIDE_HISTOGRAM_RECORD("local.marks_per_sequence",
                             result.marks_introduced);
    return result;
  }
  // Hoisted out of the round loop: after the first round these only ever
  // get reassigned, never reallocated (and the DP tables inside *scratch
  // stay warm across rounds and across sequences on the same thread).
  std::vector<uint64_t> deltas;
  std::vector<size_t> candidates;
  scratch->exhausted = false;
  for (;;) {
    // Each round recomputes δ for every pattern — the dominant cost of
    // the local stage and the number the paper's Alg. 1 loop hides. Per
    // pattern a round is O(nm) without max gaps, O(n·m·w) with max-gap
    // windows of w cells, and |T| recounts under a max-window; a pattern
    // already hidden costs only its forward table. The number of rounds
    // is the number of marks the row needs, which grows with |T|.
    SEQHIDE_COUNTER_INC("local.delta_recomputations");
    PositionDeltasTotalInto(patterns, constraints, *seq, scratch, &deltas);
    if (scratch->exhausted) {
      // A DP table blew the memory budget mid-recomputation, so `deltas`
      // is partial; marking from it could pick a suboptimal position and
      // the loop could not prove termination anyway. Stop here and let
      // the caller degrade.
      result.exhausted = true;
      break;
    }

    // Positions involved in at least one matching ("reasonable choices").
    candidates.clear();
    uint64_t best_delta = 0;
    size_t best_pos = 0;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (deltas[i] == 0) continue;
      candidates.push_back(i);
      if (deltas[i] > best_delta) {
        best_delta = deltas[i];
        best_pos = i;
      }
    }
    if (candidates.empty()) break;  // M_{S_h}^T = ∅ — sanitized.

    size_t chosen;
    if (strategy == LocalStrategy::kHeuristic) {
      // Ties break toward the smallest index (deterministic replays).
      chosen = best_pos;
    } else {
      chosen = candidates[static_cast<size_t>(
          rng->NextBounded(candidates.size()))];
    }
    seq->Mark(chosen);
    result.marked_positions.push_back(chosen);
    ++result.marks_introduced;
  }
  SEQHIDE_COUNTER_ADD("local.marks", result.marks_introduced);
  SEQHIDE_HISTOGRAM_RECORD("local.marks_per_sequence",
                           result.marks_introduced);
  return result;
}

}  // namespace seqhide
