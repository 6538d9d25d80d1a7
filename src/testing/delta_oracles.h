// Test oracles for δ(T[i]) (paper §4, Theorem 2) and the tables it is
// built from, beside the production fwd × bwd method
// (src/match/position_delta.h, src/match/language.h).
//
//  * DeltasByRecount — δ(T[i]) = |M^T| − |M^{T with i cleared}|, clearing
//    with the row's own Mark (Δ, or an emptied itemset). Clearing keeps
//    every other position in place, so this is correct under any spec of
//    any pattern language, and needs nothing of the language policy but
//    its count. n + 1 counts per call. A saturated count reads as δ = 0,
//    so callers keep counts below 2⁶⁴.
//  * PositionDeltasByMarking — the Sequence instance of DeltasByRecount.
//  * PositionDeltasByDeletion — the paper's Theorem 2 construction,
//    |M^T| − |M^{T \ T[i]}| with the element *removed*. Valid only for
//    unconstrained matching: with gap or window constraints, deleting an
//    element shifts the positions after i and thereby changes the spans of
//    matchings that do not involve i. O(n · nm).
//  * PositionDeltasTotal — δ summed over a set of patterns, one
//    PositionDeltas per pattern: what src/testing/round_oracle.h's loop
//    sums every round.
//  * BuildPrefixEndTableNaive — the paper's Lemma 3 recurrence, literally.

#ifndef SEQHIDE_TESTING_DELTA_ORACLES_H_
#define SEQHIDE_TESTING_DELTA_ORACLES_H_

#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/constraints/constraints.h"
#include "src/match/language.h"
#include "src/match/prefix_table.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

template <class L>
std::vector<uint64_t> DeltasByRecount(const typename L::Pattern& pattern,
                                      const typename L::Spec& spec,
                                      const typename L::Row& row) {
  MatchScratch scratch;
  const uint64_t base = CountLanguageMatchings(L(pattern, spec, row), &scratch);
  std::vector<uint64_t> deltas(row.size(), 0);
  typename L::Row cleared;
  for (size_t i = 0; i < row.size(); ++i) {
    cleared = row;
    cleared.Mark(i);
    const uint64_t without =
        CountLanguageMatchings(L(pattern, spec, cleared), &scratch);
    SEQHIDE_CHECK(without <= base);
    deltas[i] = base - without;
  }
  return deltas;
}

std::vector<uint64_t> PositionDeltasByMarking(const Sequence& pattern,
                                              const ConstraintSpec& spec,
                                              SequenceView seq);

std::vector<uint64_t> PositionDeltasByDeletion(const Sequence& pattern,
                                               SequenceView seq);

// δ_{S_h}(T[i]) = Σ_S δ_S(T[i]) with SatAdd. `constraints` may be empty
// (all unconstrained) or parallel to `patterns`.
std::vector<uint64_t> PositionDeltasTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq);

// The same sum with the DP tables in *scratch, written into *out.
void PositionDeltasTotalInto(const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* out);

// Literal transcription of the paper's Lemma 3 recurrence
// (P_k^{j} = Σ_{l<j} P_{k-1}^{l} when S[k] = T[j]); O(n²·m). The
// production BuildPrefixEndTable carries a running sum per row instead.
PrefixEndTable BuildPrefixEndTableNaive(const Sequence& pattern,
                                        SequenceView seq);

}  // namespace seqhide

#endif  // SEQHIDE_TESTING_DELTA_ORACLES_H_
