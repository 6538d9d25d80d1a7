// Matching-set-size computation under occurrence constraints
// (paper §5, Lemmas 4 and 5), for sequence patterns.
//
// * Gap constraints (Lemma 4): Q[k][j] counts gap-valid embeddings of the
//   length-k prefix ending exactly at T[j]; the predecessor index span is
//   restricted by the arrow's [mg, Mg].
// * Max-window constraint (Lemma 5): an embedding ending at index j must
//   start at index >= j - Ws + 1. The window binds only through the first
//   matched position, so the count sums, over each anchor s with
//   T[s] = S[1], the (gap-aware) table built over T[s .. s+Ws-1] with
//   S[1] pinned to s.
// * Conjunction: the window computation simply uses Q instead of P, as in
//   the paper's closing remark of §5.
//
// Those tables, the anchored sum and δ live once, for every pattern
// language, in language.h; this file is the sequence entry point to them
// and the whole-database loops. All counts saturate (see count.h).

#ifndef SEQHIDE_MATCH_CONSTRAINED_COUNT_H_
#define SEQHIDE_MATCH_CONSTRAINED_COUNT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/scratch.h"
#include "src/seq/database.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// |{matchings of `pattern` in `seq` satisfying `spec`}|: Lemma 2's rolled
// O(m) row (count.h) when `spec` is unconstrained, else
// CountLanguageMatchings on SequenceLanguage (language.h).
uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq);

// Allocation-free variant: all DP tables live in *scratch (one scratch
// per thread; see scratch.h). Bit-identical to the allocating overload.
uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq, MatchScratch* scratch);

// Σ over patterns (constraints[i] applies to patterns[i]; `constraints`
// may be empty meaning all-unconstrained).
uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq);

// Scratch-threaded variant for callers that evaluate many trial sequences
// in a loop (second-stage replacement search, generalization): the
// allocating overload routes through this with a local scratch.
uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq,
    MatchScratch* scratch);

// Constrained support: number of database rows with at least one valid
// occurrence. (With constraints, "supports" means "has a constrained
// matching", which the hiding problem uses as the disclosure predicate.)
bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq);

// Scratch-reusing variant of the support predicate.
bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq, MatchScratch* scratch);

// Whole-database answers under `spec`: the one loop behind the server's
// support / match-count requests, the CLI's `support` and the
// constrained miner. Per row it
//   1. skips the row when db.signatures() is attached and the row's
//      signature lacks a bit of the pattern's (src/seq/signature.h);
//   2. skips it when the pattern does not embed at all (the greedy
//      ScreenEmbeds): no embedding, no matching under any constraint;
//   3. runs the exact constrained kernel on the rest.
// The rows step 1 let through go to the `bindb.candidate.rows` counter,
// the rest to `bindb.candidate.pruned` (all rows pass when no signatures
// are attached). Equal, on every view, to the unscreened definitions:
// HasConstrainedMatch / CountConstrainedMatchings row by row (tested).
// `scratch` may be null.

// Rows with >= 1 occurrence of `pattern` satisfying `spec` (sup_D(S)
// when `spec` is unconstrained).
size_t ConstrainedSupport(const Sequence& pattern, const ConstraintSpec& spec,
                          const DatabaseView& db,
                          MatchScratch* scratch = nullptr);
size_t ConstrainedSupport(const Sequence& pattern, const ConstraintSpec& spec,
                          const SequenceDatabase& db);

// Σ_T |M_S^T| over the rows under `spec` (saturating).
uint64_t ConstrainedMatchCount(const Sequence& pattern,
                               const ConstraintSpec& spec,
                               const DatabaseView& db,
                               MatchScratch* scratch = nullptr);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_CONSTRAINED_COUNT_H_
