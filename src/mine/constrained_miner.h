// Constraint-aware frequent-sequence mining.
//
// Under occurrence constraints (paper §5) a sequence supports a pattern
// iff it contains at least one *valid* occurrence; constrained support can
// only be <= unconstrained support. This miner therefore enumerates
// candidates with the unconstrained level-wise frontier (a superset) and
// keeps those whose constrained support clears σ.
//
// Note: constrained support is NOT anti-monotone under a min-gap
// constraint alone (a pattern's extension may gain validity where the
// pattern itself had none is impossible — extensions only append arrows,
// so every valid occurrence of S·x restricts to a valid occurrence of S;
// anti-monotonicity does hold for prefix extension, which is what the
// frontier uses). The unconstrained frontier is additionally a superset,
// giving completeness regardless.

#ifndef SEQHIDE_MINE_CONSTRAINED_MINER_H_
#define SEQHIDE_MINE_CONSTRAINED_MINER_H_

#include "src/common/result.h"
#include "src/constraints/constraints.h"
#include "src/mine/pattern_set.h"
#include "src/mine/prefix_span.h"
#include "src/seq/database.h"

namespace seqhide {

// Mines { S : constrained-sup_D(S) >= σ } (ConstrainedSupport in
// src/match/constrained_count.h) where every candidate pattern is
// constrained by `uniform_spec` interpreted uniformly: the gap bound (if
// any) applies to every arrow of every candidate, the window (if any) to
// every candidate. Only uniform/window specs are meaningful here — specs
// built with ConstraintSpec::PerArrow are rejected because candidate
// lengths vary.
Result<FrequentPatternSet> MineConstrainedFrequentSequences(
    const SequenceDatabase& db, const ConstraintSpec& uniform_spec,
    const MinerOptions& opts);

}  // namespace seqhide

#endif  // SEQHIDE_MINE_CONSTRAINED_MINER_H_
