// One set of matching DPs for every pattern language (paper §4, §5, §7.1,
// §7.2, §8).
//
// The paper states its itemset (§7.1), real-time (§7.2) and class-pattern
// (§8) extensions as "the same machinery with the comparison swapped". The
// templates below are that machinery, written once: the gap-end (forward)
// table of Lemma 4, the suffix-extension (backward) table, and Theorem 2's
// δ as forward × backward. A max-window spec (Lemma 5) binds an embedding
// only through its first position, so its count and δ are the same tables
// built once per anchor: per position s where the first pattern element
// matches, over the span of positions an embedding starting at s may end
// in. Each template reads its language through a policy L, a small value
// built over one (pattern, spec, row) triple that supplies
//
//   match  bool Match(size_t k, size_t j): pattern element k matches row
//          element j (=, ⊆ or class ∈). Δ or an empty element matches
//          nothing.
//   span   Arrow arrow(size_t a), for the arrow between pattern elements a
//          and a+1, with
//            bool Pred(size_t j, size_t* lo, size_t* hi): the positions
//              [lo, hi] before j its predecessor may take (false: none);
//            bool Succ(size_t j, size_t* lo, size_t* hi): the positions
//              [lo, hi] after j its successor may take (false: none);
//            bool bounded(): the arrow has a max gap. An unbounded arrow's
//              Pred starts at 0 and its Succ ends at n−1, so one running
//              sum fills its table row;
//          and bool HasWindow() / size_t WindowStart(size_t j): the first
//          position an embedding ending at j may start at.
//
// plus m() (pattern length) and n() (row length). Every span bound must be
// non-decreasing in j, as index gaps and time gaps over non-decreasing
// timestamps are. Policies are plain values and every call is inlined: no
// virtual call and no std::function runs in a DP loop.
//
// SequenceLanguage is the paper's own instance; ItemsetLanguage
// (src/itemset), TimedLanguage (src/temporal) and ClassLanguage
// (src/repat) are the others. This file is the one home of Lemmas 3-5 and
// Theorem 2 for all four: Lemma 3's table is FillGapEndTable's with no
// gap, and CountConstrainedMatchings (constrained_count.h) leaves it only
// for Lemma 2's rolled row. All counts saturate (count.h).

#ifndef SEQHIDE_MATCH_LANGUAGE_H_
#define SEQHIDE_MATCH_LANGUAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/constraints/constraints.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/obs/macros.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// One arrow of a ConstraintSpec over positions (Lemma 4): mg..Mg events
// strictly between the two matched positions, so a successor at j has its
// predecessor in [j−1−Mg, j−1−mg].
class IndexArrow {
 public:
  IndexArrow(GapBound bound, size_t n) : bound_(bound), n_(n) {}

  bool bounded() const { return bound_.max_gap != GapBound::kNoMax; }
  bool Pred(size_t j, size_t* lo, size_t* hi) const {
    if (j < 1 || j - 1 < bound_.min_gap) return false;
    *hi = j - 1 - bound_.min_gap;
    *lo = bounded() && j >= 1 + bound_.max_gap ? j - 1 - bound_.max_gap : 0;
    return true;
  }
  bool Succ(size_t j, size_t* lo, size_t* hi) const {
    *lo = j + 1 + bound_.min_gap;
    if (*lo >= n_) return false;
    *hi = bounded() ? std::min(n_ - 1, j + 1 + bound_.max_gap) : n_ - 1;
    return true;
  }

 private:
  GapBound bound_;
  size_t n_;
};

// The spans of a ConstraintSpec: per-arrow index gaps and the Lemma 5
// window of Ws positions. Shared by every language whose spans count
// positions (sequences, itemset sequences, class patterns).
class IndexSpans {
 public:
  IndexSpans(const ConstraintSpec& spec, size_t n) : spec_(&spec), n_(n) {}

  IndexArrow arrow(size_t a) const { return IndexArrow(spec_->gap(a), n_); }
  bool HasWindow() const { return spec_->HasWindow(); }
  size_t WindowStart(size_t j) const {
    const size_t ws = *spec_->max_window();
    return j + 1 >= ws ? j + 1 - ws : 0;
  }

 private:
  const ConstraintSpec* spec_;
  size_t n_;
};

// Symbol equality, the paper's element match. Patterns are Δ-free
// (every entry point validates them), so Δ in a row matches nothing.
inline bool MatchesSymbol(SymbolId pattern_symbol, SymbolId symbol) {
  return pattern_symbol == symbol;
}

// A language over symbol rows whose pattern elements are tested with
// MatchesSymbol(element, symbol): Sequence patterns here, ClassPattern in
// src/repat.
template <class PatternT>
class SymbolLanguage : public IndexSpans {
 public:
  using Pattern = PatternT;
  using Spec = ConstraintSpec;
  using Row = Sequence;

  SymbolLanguage(const Pattern& pattern, const ConstraintSpec& spec,
                 SequenceView row)
      : IndexSpans(spec, row.size()), pattern_(pattern), row_(row) {}

  size_t m() const { return pattern_.size(); }
  size_t n() const { return row_.size(); }
  bool Match(size_t k, size_t j) const {
    return MatchesSymbol(pattern_[k], row_[j]);
  }

 private:
  const Pattern& pattern_;
  SequenceView row_;
};

using SequenceLanguage = SymbolLanguage<Sequence>;

// Prefix-ending-position table, indexed [k][j] with k in [0, m] and j in
// [0, n] (positions 1-based, as in the paper): the embeddings of the
// length-k prefix of S whose last matched position is exactly T[j].
// P[0][0] = 1 (the empty prefix "ends" only at the virtual position 0),
// P[0][j>0] = 0 and P[k>0][0] = 0. Paper Example 3: for
// T = <a,a,b,c,c,b,a,e> and S = <a,b,c>, P[2][3] = 2. Rows use the
// dp_scratch-accounted allocator (scratch.h).
using PrefixEndTable = DpTable;

// Σ_j table[m][j]: the matchings the table's last row counts (Lemma 3 ties
// back to Lemma 2's |M_S^T|).
inline uint64_t TotalFromPrefixEndTable(const PrefixEndTable& table) {
  SEQHIDE_CHECK(!table.empty());
  uint64_t total = 0;
  for (uint64_t v : table.back()) total = SatAdd(total, v);
  return total;
}

// Lemma 4's table Q in PrefixEndTable layout: gap-valid embeddings of the
// length-k prefix ending exactly at each position. Ignores the window.
// With no gap on any arrow it is Lemma 3's table P. An unbounded arrow
// fills its row from one running sum, O(n) (the paper's recurrence re-sums
// it per cell, O(n²m) in all; src/testing keeps that form as an oracle); a
// bounded one re-sums its span per cell, O(w), because a saturated sum
// cannot be un-added. Every table filled goes to the `match.gap.*`
// counters, for every language. Returns false when the scratch's budget
// refused the table (it is then a 1×1 zero table).
template <class L>
bool FillGapEndTable(const L& lang, MatchScratch* scratch,
                     PrefixEndTable* out) {
  const size_t m = lang.m();
  const size_t n = lang.n();
  PrefixEndTable& table = *out;
  if (!TryResizeAndZeroTable(scratch, &table, m + 1, n + 1)) return false;
  SEQHIDE_COUNTER_INC("match.gap.tables_built");
  SEQHIDE_COUNTER_ADD("match.gap.dp_rows", m);
  SEQHIDE_COUNTER_ADD("match.gap.dp_cells", m * (n + 1));
  table[0][0] = 1;
  if (m == 0) return true;
  for (size_t j = 0; j < n; ++j) {
    if (lang.Match(0, j)) table[1][j + 1] = 1;
  }
  for (size_t k = 2; k <= m; ++k) {
    const auto arrow = lang.arrow(k - 2);
    uint64_t prefix = 0;  // Σ table[k-1] over positions [0, next)
    size_t next = 0;
    for (size_t j = 0; j < n; ++j) {
      size_t lo, hi;
      if (!lang.Match(k - 1, j) || !arrow.Pred(j, &lo, &hi)) continue;
      if (!arrow.bounded()) {
        for (; next <= hi; ++next) {
          prefix = SatAdd(prefix, table[k - 1][next + 1]);
        }
        table[k][j + 1] = prefix;
        continue;
      }
      uint64_t sum = 0;
      for (size_t l = lo; l <= hi; ++l) sum = SatAdd(sum, table[k - 1][l + 1]);
      table[k][j + 1] = sum;
    }
  }
  return true;
}

// L restricted to the span [s, s + n) of an anchor s, with pattern
// element 0 pinned to s (span position 0): the gap-valid embeddings of
// this policy are those of L that start at s and stay inside the span.
// Every arrow's spans are L's, clipped to the span and shifted by s, so an
// unbounded arrow stays unbounded (Pred from 0, Succ to n − 1).
template <class L>
class AnchoredSpan {
 public:
  AnchoredSpan(const L& lang, size_t s, size_t n)
      : lang_(lang), s_(s), n_(n) {}

  template <class A>
  class Arrow {
   public:
    Arrow(A arrow, size_t s, size_t n) : arrow_(arrow), s_(s), n_(n) {}

    bool bounded() const { return arrow_.bounded(); }
    bool Pred(size_t j, size_t* lo, size_t* hi) const {
      if (!arrow_.Pred(s_ + j, lo, hi) || *hi < s_) return false;
      *lo = *lo > s_ ? *lo - s_ : 0;
      *hi -= s_;
      return true;
    }
    bool Succ(size_t j, size_t* lo, size_t* hi) const {
      if (!arrow_.Succ(s_ + j, lo, hi) || *lo >= s_ + n_) return false;
      *lo -= s_;
      *hi = std::min(*hi - s_, n_ - 1);
      return true;
    }

   private:
    A arrow_;
    size_t s_;
    size_t n_;
  };

  size_t m() const { return lang_.m(); }
  size_t n() const { return n_; }
  bool Match(size_t k, size_t j) const {
    return k == 0 ? j == 0 : lang_.Match(k, s_ + j);
  }
  auto arrow(size_t a) const {
    return Arrow<decltype(lang_.arrow(a))>(lang_.arrow(a), s_, n_);
  }

 private:
  const L& lang_;
  size_t s_;
  size_t n_;
};

// Lemma 5 by first positions. An embedding ending at e is in the window
// iff its first position s ≥ WindowStart(e); WindowStart is
// non-decreasing, so the ends allowed from s form the prefix up to end(s),
// the last e with WindowStart(e) ≤ s, found by one forward pointer. Calls
// visit(span, s) with the AnchoredSpan [s, end(s)] for every anchor s
// (element 0 matches at s) whose span is not empty, and returns the number
// of anchors visited.
template <class L, class Visit>
size_t ForEachAnchor(const L& lang, const Visit& visit) {
  const size_t n = lang.n();
  size_t anchors = 0;
  size_t stop = 0;  // first position whose window starts after s
  for (size_t s = 0; s < n; ++s) {
    if (!lang.Match(0, s)) continue;
    while (stop < n && lang.WindowStart(stop) <= s) ++stop;
    if (stop <= s) continue;
    ++anchors;
    visit(AnchoredSpan<L>(lang, s, stop - s), s);
  }
  return anchors;
}

// |M| under the spec: Σ_j Q[m][j] without a window; with one (Lemma 5),
// the same sum over each anchor's span, counted in `match.window.calls`
// and `.anchors`.
template <class L>
uint64_t CountLanguageMatchings(const L& lang, MatchScratch* scratch) {
  if (lang.m() == 0) return 1;
  if (lang.m() > lang.n()) return 0;
  if (lang.HasWindow()) {
    uint64_t total = 0;
    [[maybe_unused]] const size_t anchors =
        ForEachAnchor(lang, [&](const AnchoredSpan<L>& span, size_t) {
          FillGapEndTable(span, scratch, &scratch->fwd);
          total = SatAdd(total, TotalFromPrefixEndTable(scratch->fwd));
        });
    SEQHIDE_COUNTER_INC("match.window.calls");
    SEQHIDE_COUNTER_ADD("match.window.anchors", anchors);
    return total;
  }
  FillGapEndTable(lang, scratch, &scratch->fwd);
  return TotalFromPrefixEndTable(scratch->fwd);
}

// True iff the pattern embeds at all (greedy leftmost, spec ignored): no
// embedding, no matching under any constraint, so the count DP can be
// skipped.
template <class L>
bool Embeds(const L& lang) {
  size_t k = 0;
  for (size_t j = 0; j < lang.n() && k < lang.m(); ++j) {
    if (lang.Match(k, j)) ++k;
  }
  return k == lang.m();
}

// |M| behind the Embeds screen.
template <class L>
uint64_t ScreenedCount(const L& lang, MatchScratch* scratch) {
  return Embeds(lang) ? CountLanguageMatchings(lang, scratch) : 0;
}

// specs[p], or the unconstrained spec when `specs` is empty: every entry
// point takes an empty list for "all patterns unconstrained".
template <class Spec>
const Spec& SpecAt(const std::vector<Spec>& specs, size_t p) {
  static const Spec kUnconstrained{};
  return specs.empty() ? kUnconstrained : specs[p];
}

// The count kernel of the languages without a trie or row signatures
// (itemset, timed, class), with the part of MatchKernel's interface
// (src/match/kernel.h) that Algorithm 1 uses: each pattern's own count DP
// behind its Embeds screen, every (row, pattern) pair admitted. Stateless;
// borrows `patterns` and `specs`, which must outlive it.
template <class L>
class LanguageKernel {
 public:
  using Row = typename L::Row;

  LanguageKernel(const std::vector<typename L::Pattern>& patterns,
                 const std::vector<typename L::Spec>& specs)
      : patterns_(&patterns), specs_(&specs) {}

  size_t num_patterns() const { return patterns_->size(); }
  uint64_t Signature(const Row& /*row*/) const { return 0; }
  bool Admits(size_t /*p*/, uint64_t /*row_signature*/) const { return true; }
  bool HasMatch(size_t p, const Row& row, MatchScratch* scratch) const {
    return ScreenedCount(L((*patterns_)[p], SpecAt(*specs_, p), row),
                         scratch) > 0;
  }
  // Per-pattern counts into *counts; returns their saturating total.
  uint64_t CountRow(const Row& row, uint64_t /*row_signature*/,
                    MatchScratch* scratch,
                    std::vector<uint64_t>* counts) const {
    counts->resize(num_patterns());
    uint64_t total = 0;
    for (size_t p = 0; p < num_patterns(); ++p) {
      (*counts)[p] = ScreenedCount(
          L((*patterns_)[p], SpecAt(*specs_, p), row), scratch);
      total = SatAdd(total, (*counts)[p]);
    }
    return total;
  }

 private:
  const std::vector<typename L::Pattern>* patterns_;
  const std::vector<typename L::Spec>* specs_;
};

// Rows with a matching of `pattern` under `spec`: support is count > 0
// behind the screen, never an enumeration of embeddings.
template <class L>
size_t LanguageSupport(const typename L::Pattern& pattern,
                       const typename L::Spec& spec,
                       const std::vector<typename L::Row>& rows,
                       MatchScratch* scratch) {
  size_t support = 0;
  for (const auto& row : rows) {
    if (ScreenedCount(L(pattern, spec, row), scratch) > 0) ++support;
  }
  return support;
}

// bwd[k][j] ([m+1][n], 0-based positions): gap-valid embeddings of the
// suffix S[k+1..m] (1-based) entirely after j, with arrow k binding
// between j and the suffix's first matched position; bwd[m][j] = 1. Rows
// fill right to left, from one running suffix sum for an unbounded arrow
// and by re-summing the span for a bounded one (see FillGapEndTable).
template <class L>
void FillSuffixTable(const L& lang, MatchScratch* scratch, DpTable* out) {
  const size_t m = lang.m();
  const size_t n = lang.n();
  DpTable& bwd = *out;
  if (!TryResizeAndZeroTable(scratch, &bwd, m + 1, n)) return;
  for (size_t j = 0; j < n; ++j) bwd[m][j] = 1;
  // `k` counts consumed prefix elements: the next suffix element is
  // pattern element k (0-based), reached over arrow k − 1.
  for (size_t k = m; k-- > 1;) {
    const auto arrow = lang.arrow(k - 1);
    uint64_t suffix = 0;  // Σ bwd[k+1][l] over matching l in [next, n)
    size_t next = n;
    for (size_t j = n; j-- > 0;) {
      size_t lo, hi;
      if (!arrow.Succ(j, &lo, &hi)) continue;
      if (!arrow.bounded()) {
        while (next > lo) {
          --next;
          if (lang.Match(k, next)) suffix = SatAdd(suffix, bwd[k + 1][next]);
        }
        bwd[k][j] = suffix;
        continue;
      }
      uint64_t sum = 0;
      for (size_t l = lo; l <= hi; ++l) {
        if (lang.Match(k, l)) sum = SatAdd(sum, bwd[k + 1][l]);
      }
      bwd[k][j] = sum;
    }
  }
}

// Theorem 2 without the deletion, over one table pair: δ(T[j]) =
// Σ_k fwd[k][j] × bwd[k][j] over the pattern elements k that match T[j].
// A matching maps exactly one element to j, so each matching through j
// counts once, and SatMul / SatAdd keep a saturated δ large instead of 0.
// The suffix table is skipped when no embedding ends anywhere. Returns the
// DP cells filled, m·n per table.
template <class L>
size_t TableDeltas(const L& lang, MatchScratch* scratch,
                   std::vector<uint64_t>* out) {
  const size_t m = lang.m();
  const size_t n = lang.n();
  out->assign(n, 0);
  // A budget-refused fwd is a 1×1 stub: nothing below may index it.
  if (!FillGapEndTable(lang, scratch, &scratch->fwd)) return 0;
  const PrefixEndTable& fwd = scratch->fwd;
  if (scratch->exhausted ||
      std::all_of(fwd[m].begin(), fwd[m].end(),
                  [](uint64_t c) { return c == 0; })) {
    return m * n;
  }
  DpTable& bwd = scratch->bwd;
  FillSuffixTable(lang, scratch, &bwd);
  if (scratch->exhausted) return m * n;
  for (size_t j = 0; j < n; ++j) {
    uint64_t total = 0;
    for (size_t k = 1; k <= m; ++k) {
      if (!lang.Match(k - 1, j)) continue;
      total = SatAdd(total, SatMul(fwd[k][j + 1], bwd[k][j]));
    }
    (*out)[j] = total;
  }
  return 2 * m * n;
}

// δ for every position of the row w.r.t. one pattern: fwd × bwd over the
// row without a window, and with one the fwd × bwd of every anchor's span
// added into the span's positions (the anchored count lands on δ(s)).
// SatAdd keeps a saturated δ large, so a position in some embedding never
// reads 0. O(nm) (O(n·m·w) with max gaps of w) without a window, and
// O(a·Ws·m) with a anchors whose spans hold at most Ws positions. Each
// call goes to `delta.fast_calls` and its table cells to `delta.cells`.
template <class L>
void LanguageDeltas(const L& lang, MatchScratch* scratch,
                    std::vector<uint64_t>* out) {
  SEQHIDE_COUNTER_INC("delta.fast_calls");
  [[maybe_unused]] size_t cells = 0;
  if (!lang.HasWindow()) {
    cells = TableDeltas(lang, scratch, out);
    SEQHIDE_COUNTER_ADD("delta.cells", cells);
    return;
  }
  out->assign(lang.n(), 0);
  std::vector<uint64_t>& span_deltas = scratch->span_deltas;
  ForEachAnchor(lang, [&](const AnchoredSpan<L>& span, size_t s) {
    cells += TableDeltas(span, scratch, &span_deltas);
    for (size_t j = 0; j < span.n(); ++j) {
      (*out)[s + j] = SatAdd((*out)[s + j], span_deltas[j]);
    }
  });
  SEQHIDE_COUNTER_ADD("delta.cells", cells);
}

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_LANGUAGE_H_
