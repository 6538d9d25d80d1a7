#include "src/testing/delta_oracles.h"

#include <utility>

#include "src/match/count.h"
#include "src/obs/macros.h"

namespace seqhide {

std::vector<uint64_t> PositionDeltasByMarking(const Sequence& pattern,
                                              const ConstraintSpec& spec,
                                              SequenceView seq) {
  return DeltasByRecount<SequenceLanguage>(pattern, spec, seq.Materialize());
}

std::vector<uint64_t> PositionDeltasByDeletion(const Sequence& pattern,
                                               SequenceView seq) {
  SEQHIDE_COUNTER_INC("delta.deletion_calls");
  MatchScratch scratch;
  const uint64_t base = CountMatchings(pattern, seq, &scratch);
  std::vector<uint64_t> deltas(seq.size(), 0);
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!IsRealSymbol(seq[i])) continue;
    std::vector<SymbolId> reduced;
    reduced.reserve(seq.size() - 1);
    for (size_t j = 0; j < seq.size(); ++j) {
      if (j != i) reduced.push_back(seq[j]);
    }
    uint64_t without =
        CountMatchings(pattern, Sequence(std::move(reduced)), &scratch);
    SEQHIDE_DCHECK(without <= base);
    deltas[i] = base - without;
  }
  return deltas;
}

}  // namespace seqhide
