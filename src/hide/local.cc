#include "src/hide/local.h"

#include "src/common/logging.h"
#include "src/hide/hitting_set.h"
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

  if (strategy == LocalStrategy::kExhaustive) {
    LocalSanitizeResult result;
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
  return SanitizeLanguageRow<SequenceLanguage>(seq, patterns, constraints,
                                               strategy, rng, scratch);
}

}  // namespace seqhide
