// Prefix-ending-position match tables (paper Lemma 3).
//
// P[k][j] = number of matchings of the length-k prefix of S that end
// *exactly* at position j of T (both 1-based here, matching the paper;
// row/column 0 are the boundary cases). Example 3 of the paper: for
// T = <a,a,b,c,c,b,a,e>, S = <a,b,c>, P[2][3] = 2 because <a,b> has two
// embeddings ending exactly at T[3]=b.
//
// The paper's recurrence fills each of the n·m entries with an O(n) sum,
// giving O(n²·m); carrying a running prefix sum per row reduces this to
// O(n·m). The fast form is the production path; the literal recurrence is
// a test oracle (src/testing/delta_oracles.h), and tests assert the two
// agree entry-wise.
//
// This table is strictly more informative than the Lemma 2 count —
// |M_S^T| = Σ_j P[m][j] — and is the basis for pushing gap and window
// constraints into the counting (constrained_count.h).

#ifndef SEQHIDE_MATCH_PREFIX_TABLE_H_
#define SEQHIDE_MATCH_PREFIX_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// Table indexed [k][j] with k in [0, m], j in [0, n]. P[0][0] = 1,
// P[0][j>0] = 0 (the empty prefix "ends" only at the virtual position 0),
// P[k>0][0] = 0. Rows use the dp_scratch-accounted allocator (scratch.h).
using PrefixEndTable = DpTable;

// O(n·m) prefix-sum implementation (production path).
PrefixEndTable BuildPrefixEndTable(const Sequence& pattern,
                                   SequenceView seq);

// Allocation-free variant: writes into *out (resized exactly to
// [m+1][n+1]) and borrows the running-sum buffers from *scratch. `out`
// may be a scratch-owned table; it must not alias scratch->running or
// scratch->column.
void BuildPrefixEndTableInto(const Sequence& pattern, SequenceView seq,
                             MatchScratch* scratch, PrefixEndTable* out);

// Σ_j table[m][j] — total matchings recovered from a prefix table. Used by
// tests to tie Lemma 3 back to Lemma 2.
uint64_t TotalFromPrefixEndTable(const PrefixEndTable& table);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_PREFIX_TABLE_H_
