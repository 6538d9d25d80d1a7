// Border-quality evaluation — an extension beyond the paper's M1/M2/M3,
// motivated by the border-based hiding literature the paper surveys in §2
// (Sun & Yu's border approach [26], Menon et al. [19]): the *positive
// border* (the maximal frequent patterns) is a compact proxy for the
// whole frequent-pattern collection, so damage to the border is a
// sharper signal of lost knowledge than raw pattern counts.
//
//   border damage = |{P in Bd+(D) : P not frequent in D'}| / |Bd+(D)|

#ifndef SEQHIDE_EVAL_BORDER_H_
#define SEQHIDE_EVAL_BORDER_H_

#include <cstddef>
#include <vector>

#include "src/common/result.h"
#include "src/mine/pattern_set.h"

namespace seqhide {

// The positive border Bd+ of a frequent pattern collection: members with
// no proper frequent super-pattern (by the subsequence relation) in the
// collection. Quadratic in the collection size (the tests' reference).
FrequentPatternSet PositiveBorder(const FrequentPatternSet& frequent);

// Bd+ as ascending canonical indices into `frequent`, which must be
// downward closed within its length window, as every miner output is. A
// member is then dominated iff it is a one-symbol deletion of another
// member, so each member's |P| deletions are looked up and flagged.
// Agrees with PositiveBorder there (tested).
std::vector<size_t> PositiveBorderOfClosedSet(
    const FrequentPatternSet& frequent);

// Fraction of `border` (as PositiveBorderOfClosedSet returns it) whose
// support in `supports_after` (sup_D′ of F(D,σ), in canonical order, as
// MeasureM2 takes it) fell below `min_support`. FailedPrecondition when
// the border is empty; InvalidArgument when an index is out of range.
Result<double> MeasureBorderDamage(const std::vector<size_t>& border,
                                   const std::vector<size_t>& supports_after,
                                   size_t min_support);

// The same from two mined sets: the fraction of
// PositiveBorder(frequent_original) absent from frequent_sanitized.
Result<double> MeasureBorderDamage(
    const FrequentPatternSet& frequent_original,
    const FrequentPatternSet& frequent_sanitized);

}  // namespace seqhide

#endif  // SEQHIDE_EVAL_BORDER_H_
