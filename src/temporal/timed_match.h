// Matching and hiding for timed sequences (paper §7.2): "the basic method
// only needs the indices, which can be located using the associated real
// time tags". TimedLanguage plugs time-tag spans into the shared DPs of
// src/match/language.h; hiding runs Algorithm 1's one pipeline, the one
// plain sequences run:
//
//   SanitizeRows<TimedLanguage>(&rows, patterns, specs, opts)
//
// (src/hide/pipeline.h).

#ifndef SEQHIDE_TEMPORAL_TIMED_MATCH_H_
#define SEQHIDE_TEMPORAL_TIMED_MATCH_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/match/language.h"
#include "src/seq/sequence.h"
#include "src/temporal/timed_sequence.h"

namespace seqhide {

// The time-gap bounds of one arrow. Over non-decreasing timestamps the
// admissible positions form one contiguous span, because t_j − t_l only
// shrinks as l grows. Its ends are found by binary search on the spec's
// own expressions (min ≤ t_next − t_prev ≤ max), which floating-point
// subtraction keeps monotone, so rounding cannot move a boundary.
class TimeArrow {
 public:
  TimeArrow(const TimedSequence& row, const TimeConstraintSpec& spec)
      : row_(row), spec_(spec) {}

  bool bounded() const {
    return spec_.max_gap_time != TimeConstraintSpec::kNoBound;
  }
  bool Pred(size_t j, size_t* lo, size_t* hi) const {
    const size_t end =
        First(0, j, [&](size_t l) { return Gap(l, j) < spec_.min_gap_time; });
    if (end == 0) return false;
    *hi = end - 1;
    *lo = bounded() ? First(0, j,
                            [&](size_t l) {
                              return Gap(l, j) <= spec_.max_gap_time;
                            })
                    : 0;
    return true;
  }
  bool Succ(size_t j, size_t* lo, size_t* hi) const {
    const size_t n = row_.size();
    *lo = First(j + 1, n,
                [&](size_t l) { return Gap(j, l) >= spec_.min_gap_time; });
    if (*lo >= n) return false;
    *hi = bounded() ? First(*lo, n,
                            [&](size_t l) {
                              return Gap(j, l) > spec_.max_gap_time;
                            }) - 1
                    : n - 1;
    return true;
  }

  // The first l in [lo, hi) where `holds` is true (hi if none), for a
  // predicate that is false then true along the range.
  template <class Holds>
  static size_t First(size_t lo, size_t hi, const Holds& holds) {
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (holds(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

 private:
  double Gap(size_t from, size_t to) const {
    return row_[to].time - row_[from].time;
  }

  const TimedSequence& row_;
  const TimeConstraintSpec& spec_;
};

// The §7.2 language: symbol equality, spans in time units, the window
// t_last − t_first ≤ max_window_time.
class TimedLanguage {
 public:
  using Pattern = Sequence;
  using Spec = TimeConstraintSpec;
  using Row = TimedSequence;

  TimedLanguage(const Sequence& pattern, const TimeConstraintSpec& spec,
                const TimedSequence& row)
      : pattern_(pattern), spec_(spec), row_(row) {}

  size_t m() const { return pattern_.size(); }
  size_t n() const { return row_.size(); }
  bool Match(size_t k, size_t j) const {
    return MatchesSymbol(pattern_[k], row_[j].symbol);
  }
  TimeArrow arrow(size_t /*a*/) const { return TimeArrow(row_, spec_); }
  bool HasWindow() const {
    return spec_.max_window_time != TimeConstraintSpec::kNoBound;
  }
  size_t WindowStart(size_t j) const {
    return TimeArrow::First(0, j, [&](size_t f) {
      return row_[j].time - row_[f].time <= spec_.max_window_time;
    });
  }

 private:
  const Sequence& pattern_;
  const TimeConstraintSpec& spec_;
  const TimedSequence& row_;
};

// Number of embeddings of `pattern` in `seq` whose consecutive matched
// events satisfy the time-gap bounds and whose total duration satisfies
// the window bound. Saturating counts (see match/count.h).
uint64_t CountTimedMatchings(const Sequence& pattern,
                             const TimeConstraintSpec& spec,
                             const TimedSequence& seq);

// Timed support: rows with at least one time-valid occurrence.
size_t TimedSupport(const Sequence& pattern, const TimeConstraintSpec& spec,
                    const std::vector<TimedSequence>& db);

// A sensitive timed pattern is non-empty and Δ-free, and `spec` is valid.
Status ValidatePattern(const Sequence& pattern,
                       const TimeConstraintSpec& spec);

}  // namespace seqhide

#endif  // SEQHIDE_TEMPORAL_TIMED_MATCH_H_
