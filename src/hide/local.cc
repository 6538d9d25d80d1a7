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
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";

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
  const ConstraintSpec unconstrained;
  MarkRounds(
      strategy, rng, patterns.size(),
      [&](size_t p, std::vector<uint64_t>* deltas) {
        // One pattern's δ, the dominant cost of the local stage: O(nm)
        // without max gaps, O(n·m·w) with max-gap windows of w cells, and
        // O(occ(S[1])·Ws·m) under a max-window of Ws (one fwd × bwd per
        // anchor). MarkRounds asks again only after a mark that removed
        // one of the pattern's matchings. A table refused by the memory
        // budget leaves δ partial, so the loop stops and the caller
        // degrades.
        PositionDeltasInto(patterns[p],
                           constraints.empty() ? unconstrained : constraints[p],
                           *seq, scratch, deltas);
        return !scratch->exhausted;
      },
      [&](size_t pos) {
        seq->Mark(pos);
        return size_t{1};
      },
      &result);
  return result;
}

}  // namespace seqhide
