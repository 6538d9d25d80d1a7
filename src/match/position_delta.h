// δ(T[i]): the number of matchings that involve position i (paper §4).
//
// δ drives the local sanitization heuristic — "choose the marking position
// that is involved in most matches". Three computations are provided:
//
//  1. PositionDeltasByDeletion — the paper's Theorem 2 construction:
//     δ(T[i]) = |M^T| − |M^{T \ T[i]}| (element *removed*). Valid only for
//     unconstrained matching: with gap/window constraints, deleting an
//     element shifts the positions after i and thereby changes gap spans of
//     matchings that do not involve i. O(n · nm).
//  2. PositionDeltasByMarking — δ(T[i]) = |M^T| − |M^{T with i marked}|.
//     Marking replaces the symbol with Δ without shifting positions, so
//     this is correct under any ConstraintSpec (and coincides with the
//     deletion method when unconstrained). This is the reference method.
//  3. PositionDeltas — production path: forward×backward embedding-count
//     product. For each pattern position k with S[k] = T[i], the number of
//     matchings mapping S[k] to T[i] is (#gap-valid prefix embeddings of
//     S[1..k] ending at i) × (#gap-valid suffix embeddings of S[k+1..m]
//     starting after i, honoring arrow k's gap). Since a matching maps
//     exactly one pattern position to i, summing over k counts each
//     matching involving i exactly once. Both tables fill an arrow
//     without a max gap (unconstrained or ->[g..]) from one running sum
//     per row, O(n) per row; an arrow ->[a..b] sums at most w = b−a+1
//     cells per entry. So δ costs O(nm) when no arrow has a max gap and
//     O(n·m·w) otherwise. Specs with a window constraint fall back to
//     method 2, O(n) recounts (the window couples the two halves through
//     the first matched position). Methods 2 and 3 are the Sequence
//     instance of language.h's DeltasByClearing and CombineDeltas, which
//     every pattern language shares.
//
// All three agree on every input where they are defined (property-tested).

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
// kernels use (scratch->pattern_deltas exists for exactly this).
void PositionDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch,
                        std::vector<uint64_t>* out);

// Aggregate δ over a set of sensitive patterns: δ_{S_h}(T[i]) =
// Σ_S δ_S(T[i]). `constraints` may be empty (all unconstrained) or
// parallel to `patterns`.
std::vector<uint64_t> PositionDeltasTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq);

// Allocation-free aggregate: per-pattern δ goes through
// scratch->pattern_deltas and accumulates into *out. The local sanitizer
// calls this once per marking round, so scratch reuse across rounds is
// what makes the round loop allocation-free.
void PositionDeltasTotalInto(const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* out);

// Paper's Theorem 2 deletion method. Unconstrained only. Test oracle /
// documentation of the paper's algorithm.
std::vector<uint64_t> PositionDeltasByDeletion(const Sequence& pattern,
                                               SequenceView seq);

// Mark-and-recount method; correct for any spec. Test oracle and the
// fallback for window-constrained specs.
std::vector<uint64_t> PositionDeltasByMarking(const Sequence& pattern,
                                              const ConstraintSpec& spec,
                                              SequenceView seq);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_POSITION_DELTA_H_
