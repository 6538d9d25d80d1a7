#include "src/match/constrained_count.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/match/count.h"
#include "src/match/subsequence.h"
#include "src/obs/macros.h"
#include "src/seq/signature.h"

namespace seqhide {
namespace {

// Gap-valid embeddings of `pattern` in the slice seq[first..last]
// (0-based, inclusive) that end exactly at `last`. Used by the Lemma 5
// windowed evaluation; `spec`'s window is ignored here (the slice *is*
// the window).
uint64_t CountGapMatchingsEndingAt(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq, size_t first,
                                   size_t last, MatchScratch* scratch) {
  const size_t m = pattern.size();
  SEQHIDE_DCHECK(last < seq.size());
  if (m == 0) return 0;
  if (seq[last] != pattern[m - 1]) return 0;

  // ends[k-1][j] = gap-valid embeddings of S[1..k] within the slice,
  // ending exactly at absolute position j. Only positions in
  // [first, last] participate.
  DpTable& ends = scratch->window;
  if (!TryResizeAndZeroTable(scratch, &ends, m, seq.size())) return 0;
  for (size_t j = first; j <= last; ++j) {
    if (seq[j] == pattern[0]) ends[0][j] = 1;
  }
  for (size_t k = 1; k < m; ++k) {
    const GapBound bound = spec.gap(k - 1);
    for (size_t j = first; j <= last; ++j) {
      if (seq[j] != pattern[k]) continue;
      // Predecessor l must satisfy: first <= l < j and
      // bound.Allows(j - l - 1), i.e. l in [j-1-Mg, j-1-mg].
      if (j == 0) continue;
      size_t hi = (j - 1 >= bound.min_gap) ? j - 1 - bound.min_gap : 0;
      if (j - 1 < bound.min_gap) continue;
      size_t lo = first;
      if (bound.max_gap != GapBound::kNoMax && j >= 1 + bound.max_gap &&
          j - 1 - bound.max_gap > lo) {
        lo = j - 1 - bound.max_gap;
      }
      uint64_t sum = 0;
      for (size_t l = lo; l <= hi; ++l) {
        sum = SatAdd(sum, ends[k - 1][l]);
      }
      ends[k][j] = sum;
    }
  }
  return ends[m - 1][last];
}

// Total gap-valid (window-free) matchings: Σ_j Q[m][j].
uint64_t CountGapMatchings(const Sequence& pattern, const ConstraintSpec& spec,
                           SequenceView seq, MatchScratch* scratch) {
  BuildGapEndTableInto(pattern, spec, seq, scratch, &scratch->fwd);
  return TotalFromPrefixEndTable(scratch->fwd);
}

// Lemma 5: sum over ending positions j of the count of (gap-valid)
// embeddings confined to the window [j - Ws + 1, j] that end exactly at j.
uint64_t CountWindowedMatchings(const Sequence& pattern,
                                const ConstraintSpec& spec,
                                SequenceView seq, MatchScratch* scratch) {
  const size_t ws = *spec.max_window();
  SEQHIDE_COUNTER_INC("match.window.calls");
  SEQHIDE_COUNTER_ADD("match.window.slices", seq.size());
  uint64_t total = 0;
  for (size_t j = 0; j < seq.size(); ++j) {
    size_t first = (j + 1 >= ws) ? j + 1 - ws : 0;
    total = SatAdd(total, CountGapMatchingsEndingAt(pattern, spec, seq, first,
                                                    j, scratch));
  }
  return total;
}

}  // namespace

PrefixEndTable BuildGapEndTable(const Sequence& pattern,
                                const ConstraintSpec& spec,
                                SequenceView seq) {
  PrefixEndTable table;
  BuildGapEndTableInto(pattern, spec, seq, &table);
  return table;
}

void BuildGapEndTableInto(const Sequence& pattern, const ConstraintSpec& spec,
                          SequenceView seq, PrefixEndTable* out) {
  MatchScratch unlimited;
  BuildGapEndTableInto(pattern, spec, seq, &unlimited, out);
}

void BuildGapEndTableInto(const Sequence& pattern, const ConstraintSpec& spec,
                          SequenceView seq, MatchScratch* scratch,
                          PrefixEndTable* out) {
  const size_t m = pattern.size();
  const size_t n = seq.size();
  PrefixEndTable& table = *out;
  if (!TryResizeAndZeroTable(scratch, &table, m + 1, n + 1)) return;
  SEQHIDE_COUNTER_INC("match.gap.tables_built");
  SEQHIDE_COUNTER_ADD("match.gap.dp_rows", m);
  SEQHIDE_COUNTER_ADD("match.gap.dp_cells", m * (n + 1));
  table[0][0] = 1;
  if (m == 0) return;

  // k = 1: any occurrence of the first symbol (no incoming arrow).
  for (size_t j = 1; j <= n; ++j) {
    if (IsRealSymbol(seq[j - 1]) && seq[j - 1] == pattern[0]) table[1][j] = 1;
  }
  // k >= 2: restrict the predecessor span per Lemma 4. In 1-based paper
  // indexing the predecessor l of an occurrence ending at j satisfies
  // l in [j-1-Mg, j-1-mg] (intersected with [1, j-1]).
  for (size_t k = 2; k <= m; ++k) {
    const GapBound bound = spec.gap(k - 2);
    // Running sum of row k-1 over columns [1, next), used when the arrow
    // has no max gap: the span is then the whole prefix [1, j-1-mg]. A
    // bounded span is re-summed per cell instead of slid, because a
    // saturated sum cannot be un-added.
    uint64_t prefix = 0;
    size_t next = 1;
    for (size_t j = 1; j <= n; ++j) {
      const SymbolId t = seq[j - 1];
      if (!IsRealSymbol(t) || pattern[k - 1] != t) continue;
      if (j - 1 < 1 || j - 1 < bound.min_gap) continue;
      size_t hi = j - 1 - bound.min_gap;
      if (hi < 1) continue;
      if (bound.max_gap == GapBound::kNoMax) {
        for (; next <= hi; ++next) {
          prefix = SatAdd(prefix, table[k - 1][next]);
        }
        table[k][j] = prefix;
        continue;
      }
      size_t lo = 1;
      if (j >= 2 + bound.max_gap) {
        lo = std::max<size_t>(lo, j - 1 - bound.max_gap);
      }
      uint64_t sum = 0;
      for (size_t l = lo; l <= hi; ++l) {
        sum = SatAdd(sum, table[k - 1][l]);
      }
      table[k][j] = sum;
    }
  }
}

uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq) {
  MatchScratch scratch;
  return CountConstrainedMatchings(pattern, spec, seq, &scratch);
}

uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq,
                                   MatchScratch* scratch) {
  SEQHIDE_DCHECK(spec.Validate(pattern.size()).ok())
      << spec.Validate(pattern.size()).ToString();
  if (spec.IsUnconstrained()) return CountMatchings(pattern, seq, scratch);
  if (!spec.HasWindow()) return CountGapMatchings(pattern, spec, seq, scratch);
  return CountWindowedMatchings(pattern, spec, seq, scratch);
}

uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq) {
  MatchScratch scratch;
  return CountConstrainedMatchingsTotal(patterns, constraints, seq, &scratch);
}

uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq,
    MatchScratch* scratch) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  uint64_t total = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? ConstraintSpec() : constraints[p];
    total = SatAdd(total,
                   CountConstrainedMatchings(patterns[p], spec, seq, scratch));
  }
  return total;
}

bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq) {
  return CountConstrainedMatchings(pattern, spec, seq) > 0;
}

bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq, MatchScratch* scratch) {
  return CountConstrainedMatchings(pattern, spec, seq, scratch) > 0;
}

namespace {

// The screened loop of ConstrainedSupport / ConstrainedMatchCount;
// `count_matchings` picks Σ|M| over the supporting-row count.
uint64_t ScreenedDatabaseQuery(const Sequence& pattern,
                               const ConstraintSpec& spec,
                               const DatabaseView& db, bool count_matchings,
                               MatchScratch* scratch) {
  MatchScratch local;
  if (scratch == nullptr) scratch = &local;
  const uint64_t* signatures = db.signatures();
  const uint64_t need = SequenceSignature(pattern);
  uint64_t value = 0;
  size_t scanned = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    if (signatures != nullptr && (signatures[t] & need) != need) continue;
    ++scanned;
    const SequenceView row = db.row(t);
    if (!ScreenEmbeds(pattern, row)) continue;
    if (count_matchings) {
      value = SatAdd(value,
                     CountConstrainedMatchings(pattern, spec, row, scratch));
    } else if (spec.IsUnconstrained() ||
               HasConstrainedMatch(pattern, spec, row, scratch)) {
      ++value;
    }
  }
  SEQHIDE_COUNTER_ADD("bindb.candidate.rows", scanned);
  SEQHIDE_COUNTER_ADD("bindb.candidate.pruned", db.size() - scanned);
  return value;
}

}  // namespace

size_t ConstrainedSupport(const Sequence& pattern, const ConstraintSpec& spec,
                          const DatabaseView& db, MatchScratch* scratch) {
  return static_cast<size_t>(ScreenedDatabaseQuery(
      pattern, spec, db, /*count_matchings=*/false, scratch));
}

size_t ConstrainedSupport(const Sequence& pattern, const ConstraintSpec& spec,
                          const SequenceDatabase& db) {
  return ConstrainedSupport(pattern, spec, DatabaseView(db));
}

uint64_t ConstrainedMatchCount(const Sequence& pattern,
                               const ConstraintSpec& spec,
                               const DatabaseView& db, MatchScratch* scratch) {
  return ScreenedDatabaseQuery(pattern, spec, db, /*count_matchings=*/true,
                               scratch);
}

}  // namespace seqhide
