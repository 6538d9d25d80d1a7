// Algorithm 1 for the pattern languages beside plain sequences: itemset
// sequences (§7.1, src/itemset), timed sequences (§7.2, src/temporal) and
// class patterns (§8, src/repat).
//
// One pipeline, instantiated per language policy L (src/match/language.h):
//   1. count — per row and pattern, the greedy embedding screen, then the
//      language's count DP; supporters are the rows with a matching;
//   2. select — global.cc's ascending matching-count heuristic: all but
//      the ψ most expensive supporters are victims;
//   3. mark — SanitizeLanguageRow on each victim: local.h's round loop,
//      δ from LanguageDeltas, each chosen position marked through
//      MarkPosition;
//   4. verify — every row is recounted and each pattern's support must be
//      ≤ ψ, else Internal.
// The result is a SanitizeReport with supports, marks and StageTimings.
// It is serial and has no budget, checkpoint or second stage:
// those live in SanitizeView (sanitizer.h), which reads a DatabaseView of
// symbol rows only.
//
// A language adds, beside its policy, an overload of
//   Status ValidatePattern(const L::Pattern&, const L::Spec&)
// and may overload MarkPosition (below) for a finer mark than clearing the
// whole position; both are found by argument-dependent lookup.

#ifndef SEQHIDE_HIDE_HIDE_LANGUAGE_H_
#define SEQHIDE_HIDE_HIDE_LANGUAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/result.h"
#include "src/common/stopwatch.h"
#include "src/hide/global.h"
#include "src/hide/local.h"
#include "src/hide/sanitizer.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/scratch.h"
#include "src/obs/trace.h"

namespace seqhide {

// Marks position `pos` of a victim row by clearing it (Row::Mark): one
// mark. `count_total(row)` is the row's total matching count, for
// overloads that mark by trial (itemset sequences remove single items).
template <class Row, class CountTotal>
size_t MarkPosition(Row* row, size_t pos, const CountTotal& /*count_total*/) {
  row->Mark(pos);
  return 1;
}

// The mark stage on one victim row (the paper's Sanitize(T, S_h)):
// local.h's MarkRounds with each pattern's LanguageDeltas, marking the
// chosen position through MarkPosition. `specs` is empty or parallel to
// `patterns`; the row's DP tables live in *scratch.
template <class L>
LocalSanitizeResult SanitizeLanguageRow(
    typename L::Row* row, const std::vector<typename L::Pattern>& patterns,
    const std::vector<typename L::Spec>& specs, MatchScratch* scratch) {
  const typename L::Spec unconstrained{};
  auto lang = [&](size_t p, const typename L::Row& r) {
    return L(patterns[p], specs.empty() ? unconstrained : specs[p], r);
  };
  auto count_total = [&](const typename L::Row& r) {
    uint64_t total = 0;
    for (size_t p = 0; p < patterns.size(); ++p) {
      total = SatAdd(total, ScreenedCount(lang(p, r), scratch));
    }
    return total;
  };
  LocalSanitizeResult result;
  MarkRounds(
      LocalStrategy::kHeuristic, /*rng=*/nullptr, patterns.size(),
      [&](size_t p, std::vector<uint64_t>* deltas) {
        LanguageDeltas(lang(p, *row), scratch, deltas);
        return !scratch->exhausted;
      },
      [&](size_t pos) { return MarkPosition(row, pos, count_total); },
      &result);
  return result;
}

// Hides every pattern down to support ≤ psi in *rows. `specs` is empty
// (all unconstrained) or parallel to `patterns`.
template <class L>
Result<SanitizeReport> HideLanguagePatterns(
    std::vector<typename L::Row>* rows,
    const std::vector<typename L::Pattern>& patterns,
    const std::vector<typename L::Spec>& specs, size_t psi) {
  using Row = typename L::Row;
  SEQHIDE_CHECK(rows != nullptr);
  if (patterns.empty()) {
    return Status::InvalidArgument("no sensitive patterns given");
  }
  if (!specs.empty() && specs.size() != patterns.size()) {
    return Status::InvalidArgument(
        "constraints list must be empty or have one entry per pattern");
  }
  const typename L::Spec unconstrained{};
  auto spec_of = [&](size_t p) -> const typename L::Spec& {
    return specs.empty() ? unconstrained : specs[p];
  };
  for (size_t p = 0; p < patterns.size(); ++p) {
    SEQHIDE_RETURN_IF_ERROR(ValidatePattern(patterns[p], spec_of(p)));
  }

  const Stopwatch timer;
  SanitizeReport report;
  MatchScratch scratch;
  auto count = [&](size_t p, const Row& row) {
    return ScreenedCount(L(patterns[p], spec_of(p), row), &scratch);
  };

  std::vector<SequenceMatchInfo> info;
  {
    obs::ScopedTimer stage(&report.stages.count_seconds);
    report.supports_before.assign(patterns.size(), 0);
    for (size_t t = 0; t < rows->size(); ++t) {
      SequenceMatchInfo row_info;
      row_info.index = t;
      row_info.pattern_support.resize(patterns.size());
      for (size_t p = 0; p < patterns.size(); ++p) {
        const uint64_t c = count(p, (*rows)[t]);
        row_info.matching_count = SatAdd(row_info.matching_count, c);
        row_info.pattern_support[p] = c > 0;
        if (c > 0) ++report.supports_before[p];
      }
      if (row_info.matching_count == 0) continue;
      if (row_info.matching_count == kCountSaturated) ++report.saturated_rows;
      info.push_back(std::move(row_info));
    }
    report.sequences_supporting_before = info.size();
    report.count_rows = rows->size() * patterns.size();
  }

  std::vector<size_t> victims;
  {
    obs::ScopedTimer stage(&report.stages.select_seconds);
    victims = SelectSequencesToSanitize(DatabaseView(), info,
                                        GlobalStrategy::kHeuristic, psi,
                                        /*rng=*/nullptr);
  }

  {
    obs::ScopedTimer stage(&report.stages.mark_seconds);
    for (size_t t : victims) {
      const LocalSanitizeResult local =
          SanitizeLanguageRow<L>(&(*rows)[t], patterns, specs, &scratch);
      report.marks_introduced += local.marks_introduced;
      ++report.sequences_sanitized;
    }
  }

  {
    obs::ScopedTimer stage(&report.stages.verify_seconds);
    for (size_t p = 0; p < patterns.size(); ++p) {
      report.supports_after.push_back(
          LanguageSupport<L>(patterns[p], spec_of(p), *rows, &scratch));
    }
  }
  report.elapsed_seconds = timer.ElapsedSeconds();
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (report.supports_after[p] > psi) {
      return Status::Internal(
          "disclosure requirement violated after sanitization: pattern " +
          std::to_string(p) + " has support " +
          std::to_string(report.supports_after[p]) + " > " +
          std::to_string(psi));
    }
  }
  return report;
}

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_HIDE_LANGUAGE_H_
