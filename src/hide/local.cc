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
  // The DP tables inside *scratch stay warm across rounds and across
  // sequences on the same thread.
  scratch->exhausted = false;
  MarkRounds(
      strategy, rng,
      [&](std::vector<uint64_t>* deltas) {
        // Each round recomputes δ for every pattern — the dominant cost of
        // the local stage and the number the paper's Alg. 1 loop hides.
        // Per pattern a round is O(nm) without max gaps, O(n·m·w) with
        // max-gap windows of w cells, and O(occ(S[1])·Ws·m) under a
        // max-window of Ws (one fwd × bwd per anchor); a pattern already
        // hidden costs only its forward table(s). The
        // number of rounds is the number of marks the row needs, which
        // grows with |T|. A table refused by the memory budget leaves δ
        // partial, so the loop stops and the caller degrades.
        SEQHIDE_COUNTER_INC("local.delta_recomputations");
        PositionDeltasTotalInto(patterns, constraints, *seq, scratch, deltas);
        return !scratch->exhausted;
      },
      [&](size_t pos) {
        seq->Mark(pos);
        return size_t{1};
      },
      &result);
  SEQHIDE_COUNTER_ADD("local.marks", result.marks_introduced);
  SEQHIDE_HISTOGRAM_RECORD("local.marks_per_sequence",
                           result.marks_introduced);
  return result;
}

}  // namespace seqhide
