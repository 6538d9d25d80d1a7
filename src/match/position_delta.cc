#include "src/match/position_delta.h"

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/prefix_table.h"
#include "src/obs/macros.h"

namespace seqhide {

std::vector<uint64_t> PositionDeltas(const Sequence& pattern,
                                     const ConstraintSpec& spec,
                                     SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> deltas;
  PositionDeltasInto(pattern, spec, seq, &scratch, &deltas);
  return deltas;
}

void PositionDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch,
                        std::vector<uint64_t>* out) {
  SEQHIDE_CHECK(!pattern.empty());
  if (seq.empty()) {
    out->clear();
    return;
  }

  SEQHIDE_COUNTER_INC("delta.fast_calls");
  if (spec.HasWindow()) {
    LanguageDeltas(SequenceLanguage(pattern, spec, seq), scratch, out);
    return;
  }

  // fwd[k][j] (1-based j): gap-valid embeddings of S[1..k] ending at j.
  if (spec.HasGaps()) {
    BuildGapEndTableInto(pattern, spec, seq, scratch, &scratch->fwd);
  } else {
    BuildPrefixEndTableInto(pattern, seq, scratch, &scratch->fwd);
  }
  CombineDeltas(SequenceLanguage(pattern, spec, seq), scratch, out);
}

}  // namespace seqhide
