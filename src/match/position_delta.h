// δ(T[i]): the number of matchings that involve position i (paper §4).
//
// δ drives the local sanitization heuristic — "choose the marking position
// that is involved in most matches". PositionDeltas is the one production
// method, Theorem 2 without the deletion: for each pattern position k with
// S[k] = T[i], the number of matchings mapping S[k] to T[i] is (#gap-valid
// prefix embeddings of S[1..k] ending at i) × (#gap-valid suffix
// embeddings of S[k+1..m] starting after i, honoring arrow k's gap). Since
// a matching maps exactly one pattern position to i, summing over k counts
// each matching involving i exactly once. Both tables fill an arrow
// without a max gap (unconstrained or ->[g..]) from one running sum per
// row, O(n) per row; an arrow ->[a..b] sums at most w = b−a+1 cells per
// entry. So δ costs O(nm) when no arrow has a max gap and O(n·m·w)
// otherwise. A max-window spec (Lemma 5) binds only through the first
// matched position, so its δ is the same product summed over anchors:
// per position s holding S[1], the tables over the Ws positions an
// embedding starting at s may use, O(occ(S[1])·Ws·m) (language.h's
// LanguageDeltas, which every pattern language shares).
//
// The test oracles — the paper's deletion construction, mark-and-recount
// and the sum over patterns — live in src/testing/delta_oracles.h; all
// agree with PositionDeltas wherever they are defined (property-tested).

#ifndef SEQHIDE_MATCH_POSITION_DELTA_H_
#define SEQHIDE_MATCH_POSITION_DELTA_H_

#include <cstdint>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// δ for every position of `seq` w.r.t. one pattern. Production path.
std::vector<uint64_t> PositionDeltas(const Sequence& pattern,
                                     const ConstraintSpec& spec,
                                     SequenceView seq);

// Allocation-free variant: DP tables live in *scratch, δ is written into
// *out (resized to |seq|). `out` must not alias a buffer the counting
// kernels use. The local sanitizer (src/hide/local.h) keeps one such
// vector per sensitive pattern and sums them itself.
void PositionDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch,
                        std::vector<uint64_t>* out);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_POSITION_DELTA_H_
