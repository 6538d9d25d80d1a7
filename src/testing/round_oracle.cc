#include "src/testing/round_oracle.h"

#include "src/match/position_delta.h"

namespace seqhide {

LocalSanitizeResult SanitizeSequenceRefillingAll(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng, MatchScratch* scratch) {
  scratch->exhausted = false;
  const ConstraintSpec unconstrained;
  LocalSanitizeResult result;
  MarkRoundsRefillingAll(
      strategy, rng, seq->size(), patterns.size(),
      [&](size_t p, std::vector<uint64_t>* d) {
        PositionDeltasInto(patterns[p],
                           constraints.empty() ? unconstrained : constraints[p],
                           *seq, scratch, d);
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
