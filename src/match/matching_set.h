// Explicit enumeration of matching sets (paper Definition 1).
//
// M_S^T is the set of all |S|-tuples of strictly increasing positions of T
// at which S embeds (optionally restricted by occurrence constraints,
// paper §5). Its size is exponential in |T| in the worst case (Lemma 1),
// so enumeration exists as a *test oracle* and for interactive inspection
// of small sequences — the production paths use the counting DPs in
// count.h / constrained_count.h, which are cross-checked against this
// enumeration by the property tests.

#ifndef SEQHIDE_MATCH_MATCHING_SET_H_
#define SEQHIDE_MATCH_MATCHING_SET_H_

#include <cstddef>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/seq/sequence.h"

namespace seqhide {

// One matching: 0-based, strictly increasing positions, one per pattern
// symbol.
using Matching = std::vector<size_t>;

// Enumerates M_S^T in lexicographic order of position tuples, stopping
// after `cap` matchings (0 = unlimited). Constraints filter occurrences
// per ConstraintSpec::SatisfiedBy.
std::vector<Matching> EnumerateMatchings(const Sequence& pattern,
                                         const Sequence& seq,
                                         const ConstraintSpec& constraints,
                                         size_t cap = 0);

// Unconstrained overload.
std::vector<Matching> EnumerateMatchings(const Sequence& pattern,
                                         const Sequence& seq, size_t cap = 0);

// M_{S_h}^T = ∪_S M_S^T (paper Definition 1). Tuples from distinct
// patterns are necessarily distinct (two patterns embedding at the same
// positions of T would be equal), so the union is returned as a flat list
// tagged with the pattern index that produced each matching.
struct TaggedMatching {
  size_t pattern_index;
  Matching positions;
};
std::vector<TaggedMatching> EnumerateMatchingsOfSet(
    const std::vector<Sequence>& patterns, const Sequence& seq,
    const std::vector<ConstraintSpec>& constraints, size_t cap = 0);

// Number of matchings that involve position `pos` of `seq` — the
// definitional δ(T[pos]) of the paper (§4), computed by brute force.
// Test oracle for LanguageDeltas (language.h).
size_t CountMatchingsInvolvingPosition(const Sequence& pattern,
                                       const Sequence& seq,
                                       const ConstraintSpec& constraints,
                                       size_t pos);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_MATCHING_SET_H_
