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

std::vector<uint64_t> PositionDeltasTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> total;
  PositionDeltasTotalInto(patterns, constraints, seq, &scratch, &total);
  return total;
}

void PositionDeltasTotalInto(const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* out) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  out->assign(seq.size(), 0);
  std::vector<uint64_t> d;
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? ConstraintSpec() : constraints[p];
    LanguageDeltas(SequenceLanguage(patterns[p], spec, seq), scratch, &d);
    for (size_t j = 0; j < seq.size(); ++j) {
      (*out)[j] = SatAdd((*out)[j], d[j]);
    }
  }
}

PrefixEndTable BuildPrefixEndTableNaive(const Sequence& pattern,
                                        SequenceView seq) {
  const size_t m = pattern.size();
  const size_t n = seq.size();
  PrefixEndTable table(m + 1, DpRow(n + 1, 0));
  table[0][0] = 1;
  for (size_t k = 1; k <= m; ++k) {
    for (size_t j = 1; j <= n; ++j) {
      const SymbolId t = seq[j - 1];
      if (!IsRealSymbol(t) || pattern[k - 1] != t) continue;
      // Paper's recurrence: sum of all ways the (k-1)-prefix ends strictly
      // before j. (For k=1 this is table[0][0] = 1.)
      uint64_t sum = 0;
      for (size_t l = 0; l < j; ++l) sum = SatAdd(sum, table[k - 1][l]);
      table[k][j] = sum;
    }
  }
  return table;
}

}  // namespace seqhide
