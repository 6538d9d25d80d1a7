// Level-wise (GSP/AprioriAll-style) frequent-sequence miner.
//
// Independent second implementation of F(D,σ): generates length-(k+1)
// candidates by extending each frequent length-k pattern with each
// frequent symbol and counts support by database scan, pruning with the
// a-priori property (every prefix of a frequent pattern is frequent —
// for simple sequences, suffix pruning also holds but prefix extension
// plus a support scan is already complete).
//
// Asymptotically slower than PrefixSpan; exists as the cross-check oracle
// that guarantees the production miner's completeness (tested on every
// workload class) and as the comparison baseline in bench_kernels.

#ifndef SEQHIDE_TESTING_LEVEL_WISE_H_
#define SEQHIDE_TESTING_LEVEL_WISE_H_

#include "src/common/result.h"
#include "src/mine/pattern_set.h"
#include "src/mine/prefix_span.h"
#include "src/seq/database.h"

namespace seqhide {
namespace proptest {

// Mines F(D, σ) with the same option semantics as MineFrequentSequences.
Result<FrequentPatternSet> MineFrequentSequencesLevelWise(
    const SequenceDatabase& db, const MinerOptions& opts);

}  // namespace proptest
}  // namespace seqhide

#endif  // SEQHIDE_TESTING_LEVEL_WISE_H_
