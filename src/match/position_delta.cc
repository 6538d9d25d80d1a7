#include "src/match/position_delta.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/prefix_table.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// bwd[k][j] (k in [0,m], j in [0,n-1] 0-based positions): number of
// gap-valid embeddings of the suffix S[k+1..m] (1-based pattern indexing)
// entirely at positions > j, where arrow k's gap constraint binds between
// position j and the suffix's first matched position. bwd[m][j] = 1.
//
// Returned flattened as rows k = 0..m over n+1 "virtual" anchor positions:
// index j = position in T; an extra anchor value is not needed because the
// sanitizer only queries j that hold a real symbol.
//
// An arrow without a max gap sums a whole suffix of row k+1, so the row is
// filled right to left from one running suffix sum: O(n) per row. A
// bounded arrow sums a window of at most max-min+1 cells per entry. The
// window is re-summed rather than slid: sliding would subtract, and a
// saturated SatAdd total cannot be un-added. Every term is non-negative,
// so either order of saturating additions yields min(true sum, 2^64-1).
void BuildSuffixExtensionTableInto(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq, MatchScratch* scratch,
                                   DpTable* out) {
  const size_t m = pattern.size();
  const size_t n = seq.size();
  DpTable& bwd = *out;
  if (!TryResizeAndZeroTable(scratch, &bwd, m + 1, n)) return;
  for (size_t j = 0; j < n; ++j) bwd[m][j] = 1;
  // Rows k = m-1 down to 1. In this loop `k` counts consumed prefix
  // symbols, so the next suffix symbol is S[k+1] = pattern[k] (0-based),
  // and the arrow S[k] -> S[k+1] has 0-based arrow index k - 1.
  for (size_t k = m - 1; k >= 1; --k) {
    const GapBound bound = spec.gap(k - 1);
    // Running sum of bwd[k+1][l] over l in [next, n) with
    // seq[l] = pattern[k], used when the arrow has no max gap.
    uint64_t suffix = 0;
    size_t next = n;
    for (size_t j = n; j-- > 0;) {
      // l ranges over positions after j whose gap (l - j - 1) is allowed.
      const size_t lo = j + 1 + bound.min_gap;
      if (lo >= n) continue;
      if (bound.max_gap == GapBound::kNoMax) {
        while (next > lo) {
          --next;
          if (seq[next] == pattern[k]) {
            suffix = SatAdd(suffix, bwd[k + 1][next]);
          }
        }
        bwd[k][j] = suffix;
        continue;
      }
      const size_t hi = std::min(n - 1, j + 1 + bound.max_gap);
      uint64_t sum = 0;
      for (size_t l = lo; l <= hi; ++l) {
        if (seq[l] == pattern[k]) sum = SatAdd(sum, bwd[k + 1][l]);
      }
      bwd[k][j] = sum;
    }
  }
}

// Scratch-reusing mark-and-recount: scratch->marked is the working copy
// (re-assigned per position, so no per-position allocation once its
// capacity covers |seq|).
void PositionDeltasByMarkingInto(const Sequence& pattern,
                                 const ConstraintSpec& spec,
                                 SequenceView seq, MatchScratch* scratch,
                                 std::vector<uint64_t>* out) {
  SEQHIDE_COUNTER_INC("delta.marking_calls");
  const uint64_t base = CountConstrainedMatchings(pattern, spec, seq, scratch);
  out->assign(seq.size(), 0);
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!IsRealSymbol(seq[i])) continue;
    scratch->marked = seq.Materialize();
    scratch->marked.Mark(i);
    uint64_t without =
        CountConstrainedMatchings(pattern, spec, scratch->marked, scratch);
    SEQHIDE_DCHECK(without <= base);
    (*out)[i] = base - without;
  }
}

}  // namespace

std::vector<uint64_t> PositionDeltas(const Sequence& pattern,
                                     const ConstraintSpec& spec,
                                     SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> deltas;
  PositionDeltasInto(pattern, spec, seq, &scratch, &deltas);
  return deltas;
}

void PositionDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch,
                        std::vector<uint64_t>* out) {
  SEQHIDE_CHECK(!pattern.empty());
  const size_t m = pattern.size();
  const size_t n = seq.size();
  if (n == 0) {
    out->clear();
    return;
  }

  if (spec.HasWindow()) {
    // The window couples both halves of the embedding through the first
    // matched position; use the always-correct mark-and-recount method.
    PositionDeltasByMarkingInto(pattern, spec, seq, scratch, out);
    return;
  }
  SEQHIDE_COUNTER_INC("delta.fast_calls");

  // fwd[k][j] (1-based j): gap-valid embeddings of S[1..k] ending at j.
  PrefixEndTable& fwd = scratch->fwd;
  if (spec.HasGaps()) {
    BuildGapEndTableInto(pattern, spec, seq, scratch, &fwd);
  } else {
    BuildPrefixEndTableInto(pattern, seq, scratch, &fwd);
  }
  // No embedding of the whole pattern ends anywhere: every δ is 0, so the
  // suffix table is skipped. (It is smaller than fwd, so skipping it never
  // hides a budget refusal.) In the local round loop this is the common
  // case for a pattern already hidden, since marking never revives one.
  if (!scratch->exhausted &&
      std::all_of(fwd[m].begin(), fwd[m].end(),
                  [](uint64_t c) { return c == 0; })) {
    out->assign(n, 0);
    return;
  }
  DpTable& bwd = scratch->bwd;
  BuildSuffixExtensionTableInto(pattern, spec, seq, scratch, &bwd);
  if (scratch->exhausted) {
    // One of the tables was refused by the memory budget; either table may
    // be a 1×1 stub, so the combination below would index out of range.
    out->assign(n, 0);
    return;
  }

  out->assign(n, 0);
  for (size_t j = 0; j < n; ++j) {
    if (!IsRealSymbol(seq[j])) continue;
    uint64_t total = 0;
    for (size_t k = 1; k <= m; ++k) {
      if (pattern[k - 1] != seq[j]) continue;
      // fwd uses 1-based columns: position j (0-based) is column j+1.
      total = SatAdd(total, SatMul(fwd[k][j + 1], bwd[k][j]));
    }
    (*out)[j] = total;
  }
}

std::vector<uint64_t> PositionDeltasTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> total;
  PositionDeltasTotalInto(patterns, constraints, seq, &scratch, &total);
  return total;
}

void PositionDeltasTotalInto(const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* out) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  out->assign(seq.size(), 0);
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? ConstraintSpec() : constraints[p];
    std::vector<uint64_t>& d = scratch->pattern_deltas;
    PositionDeltasInto(patterns[p], spec, seq, scratch, &d);
    for (size_t j = 0; j < seq.size(); ++j) {
      (*out)[j] = SatAdd((*out)[j], d[j]);
    }
  }
}

std::vector<uint64_t> PositionDeltasByDeletion(const Sequence& pattern,
                                               SequenceView seq) {
  SEQHIDE_COUNTER_INC("delta.deletion_calls");
  MatchScratch scratch;
  const uint64_t base = CountMatchings(pattern, seq, &scratch);
  std::vector<uint64_t> deltas(seq.size(), 0);
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!IsRealSymbol(seq[i])) continue;
    std::vector<SymbolId> reduced;
    reduced.reserve(seq.size() - 1);
    for (size_t j = 0; j < seq.size(); ++j) {
      if (j != i) reduced.push_back(seq[j]);
    }
    uint64_t without =
        CountMatchings(pattern, Sequence(std::move(reduced)), &scratch);
    SEQHIDE_DCHECK(without <= base);
    deltas[i] = base - without;
  }
  return deltas;
}

std::vector<uint64_t> PositionDeltasByMarking(const Sequence& pattern,
                                              const ConstraintSpec& spec,
                                              SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> deltas;
  PositionDeltasByMarkingInto(pattern, spec, seq, &scratch, &deltas);
  return deltas;
}

}  // namespace seqhide
