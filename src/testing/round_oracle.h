// The local round loop of Algorithm 1 refilling every pattern's δ in every
// round: sum δ_p over all sensitive patterns, mark argmax (ties toward the
// smallest index) or a uniformly random position with δ > 0, repeat. This
// is the paper's Sanitize(T, S_h) read literally. local.h's MarkRounds
// refills only the patterns whose matchings the last mark touched; the
// property suite (tests/prop/prop_mark_rounds_test.cc) checks that both
// mark the same positions in the same order, with the same Random draws,
// and stop on the same budget refusal. The loop shares no code with
// MarkRounds; the δ and mark callbacks are the production ones.

#ifndef SEQHIDE_TESTING_ROUND_ORACLE_H_
#define SEQHIDE_TESTING_ROUND_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/hide/local.h"
#include "src/hide/options.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/scratch.h"

namespace seqhide {

// MarkRounds' contract (src/hide/local.h) for a row of `n` positions, with
// every pattern's δ refilled every round.
template <class Deltas, class Mark>
void MarkRoundsRefillingAll(LocalStrategy strategy, Rng* rng, size_t n,
                            size_t num_patterns, const Deltas& deltas,
                            const Mark& mark, LocalSanitizeResult* result) {
  std::vector<uint64_t> total, d;
  for (;;) {
    total.assign(n, 0);
    bool refused = false;
    for (size_t p = 0; p < num_patterns; ++p) {
      if (!deltas(p, &d)) refused = true;
      for (size_t i = 0; i < n && !refused; ++i) {
        total[i] = SatAdd(total[i], d[i]);
      }
    }
    if (refused) {
      result->exhausted = true;
      return;
    }
    std::vector<size_t> candidates;
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (total[i] == 0) continue;
      candidates.push_back(i);
      if (best == n || total[i] > total[best]) best = i;
    }
    if (candidates.empty()) return;
    const size_t chosen =
        strategy == LocalStrategy::kHeuristic
            ? best
            : candidates[static_cast<size_t>(
                  rng->NextBounded(candidates.size()))];
    result->marks_introduced += mark(chosen);
    result->marked_positions.push_back(chosen);
  }
}

// SanitizeLanguageRow (src/hide/local.h; kHeuristic or kRandom) with
// every pattern refilled every round. *scratch carries the memory budget,
// as in the mark stage.
template <class L>
LocalSanitizeResult SanitizeLanguageRowRefillingAll(
    typename L::Row* row, const std::vector<typename L::Pattern>& patterns,
    const std::vector<typename L::Spec>& specs, LocalStrategy strategy,
    Rng* rng, MatchScratch* scratch) {
  const typename L::Spec unconstrained{};
  auto lang = [&](size_t p, const typename L::Row& r) {
    return L(patterns[p], specs.empty() ? unconstrained : specs[p], r);
  };
  auto count_total = [&](const typename L::Row& r) {
    uint64_t total = 0;
    for (size_t p = 0; p < patterns.size(); ++p) {
      total = SatAdd(total, CountLanguageMatchings(lang(p, r), scratch));
    }
    return total;
  };
  scratch->exhausted = false;
  LocalSanitizeResult result;
  MarkRoundsRefillingAll(
      strategy, rng, row->size(), patterns.size(),
      [&](size_t p, std::vector<uint64_t>* d) {
        LanguageDeltas(lang(p, *row), scratch, d);
        return !scratch->exhausted;
      },
      [&](size_t pos) { return MarkPosition(row, pos, count_total); },
      &result);
  return result;
}

}  // namespace seqhide

#endif  // SEQHIDE_TESTING_ROUND_ORACLE_H_
