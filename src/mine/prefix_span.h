// PrefixSpan-style frequent-sequence miner (the baseline substrate the
// paper's M2/M3 distortion measures require; no miner is in scope for the
// paper itself, so this is a from-scratch implementation of the standard
// pattern-growth algorithm specialized to simple symbol sequences).
//
// The miner enumerates every pattern S with sup_D(S) >= σ by depth-first
// pattern growth over pseudo-projected databases: a projection stores,
// per supporting sequence, the position after the leftmost embedding of
// the current prefix — sufficient because "S appended with x is a
// subsequence of T" iff x occurs after the leftmost embedding of S.
// Marked (Δ) positions never contribute.
//
// The projections make each frequent root symbol's subtree independent of
// the others: it reads only the shared dense copy of the database and its
// own projection. After one serial root pass, the subtrees are mined as
// tasks on ThreadPool::Shared() (as many threads as the process may run
// on), each chunk of roots into its own fragment, and the fragments are
// spliced in root order (FrequentPatternSet::Splice). The result, the max_patterns
// decision and the mine.prefixspan.* counters of a successful mine are
// the same at every thread count. A caller must not mine from inside a
// region body of the shared pool.

#ifndef SEQHIDE_MINE_PREFIX_SPAN_H_
#define SEQHIDE_MINE_PREFIX_SPAN_H_

#include <cstddef>

#include "src/common/result.h"
#include "src/mine/pattern_set.h"
#include "src/seq/database.h"

namespace seqhide {

struct MinerOptions {
  // Minimum support σ (absolute count). Must be >= 1: σ = 0 would make
  // F(D,σ) the infinite set Σ*.
  size_t min_support = 1;

  // Pattern-length window; max_length 0 means unbounded.
  size_t min_length = 1;
  size_t max_length = 0;

  // Safety valve for pathological inputs: stop after this many frequent
  // patterns (0 = unlimited). When the cap fires, the miner returns
  // OutOfRange instead of a silently truncated result.
  size_t max_patterns = 0;
};

// Mines F(D, σ) (restricted by the length window).
Result<FrequentPatternSet> MineFrequentSequences(const SequenceDatabase& db,
                                                 const MinerOptions& opts);

}  // namespace seqhide

#endif  // SEQHIDE_MINE_PREFIX_SPAN_H_
