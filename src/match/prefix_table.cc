#include "src/match/prefix_table.h"

#include "src/common/logging.h"
#include "src/match/count.h"

namespace seqhide {

PrefixEndTable BuildPrefixEndTable(const Sequence& pattern,
                                   SequenceView seq) {
  MatchScratch scratch;
  PrefixEndTable table;
  BuildPrefixEndTableInto(pattern, seq, &scratch, &table);
  return table;
}

void BuildPrefixEndTableInto(const Sequence& pattern, SequenceView seq,
                             MatchScratch* scratch, PrefixEndTable* out) {
  const size_t m = pattern.size();
  const size_t n = seq.size();
  PrefixEndTable& table = *out;
  if (!TryResizeAndZeroTable(scratch, &table, m + 1, n + 1)) return;
  table[0][0] = 1;

  // running[k] = Σ_{l<=j_processed} table[k][l]; lets each entry be filled
  // in O(1). Row k consumes running sums of row k-1.
  DpRow& running = scratch->running;
  running.assign(m + 1, 0);
  running[0] = 1;  // table[0][0]

  // Process columns left to right; for column j, table[k][j] depends on
  // the running sum of row k-1 over columns < j.
  DpRow& column = scratch->column;
  for (size_t j = 1; j <= n; ++j) {
    const SymbolId t = seq[j - 1];
    // Fill the column top-down using the running sums *before* including
    // column j, iterating k downward so row k-1's running sum is still
    // "columns < j" when row k reads it... k ascending also works because
    // we add column j to running[] only after computing the whole column.
    column.assign(m + 1, 0);
    if (IsRealSymbol(t)) {
      for (size_t k = 1; k <= m; ++k) {
        if (pattern[k - 1] == t) column[k] = running[k - 1];
      }
    }
    for (size_t k = 1; k <= m; ++k) {
      table[k][j] = column[k];
      running[k] = SatAdd(running[k], column[k]);
    }
  }
}

uint64_t TotalFromPrefixEndTable(const PrefixEndTable& table) {
  SEQHIDE_CHECK(!table.empty());
  uint64_t total = 0;
  for (uint64_t v : table.back()) total = SatAdd(total, v);
  return total;
}

}  // namespace seqhide
