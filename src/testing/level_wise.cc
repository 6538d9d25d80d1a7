#include "src/testing/level_wise.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/match/subsequence.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace proptest {

Result<FrequentPatternSet> MineFrequentSequencesLevelWise(
    const SequenceDatabase& db, const MinerOptions& opts) {
  if (opts.min_support == 0) {
    return Status::InvalidArgument(
        "min_support must be >= 1 (sigma = 0 makes F(D,sigma) infinite)");
  }
  if (opts.max_length != 0 && opts.min_length > opts.max_length) {
    return Status::InvalidArgument("min_length > max_length");
  }

  SEQHIDE_TRACE_SPAN("mine_level_wise");
  // Found level by level, added in canonical order at the end.
  std::vector<std::pair<Sequence, size_t>> found;

  // Level 1: frequent symbols.
  std::vector<size_t> symbol_support(db.alphabet().size(), 0);
  for (const auto& seq : db.sequences()) {
    std::vector<bool> seen(db.alphabet().size(), false);
    for (size_t j = 0; j < seq.size(); ++j) {
      SymbolId s = seq[j];
      if (IsRealSymbol(s) && !seen[static_cast<size_t>(s)]) {
        seen[static_cast<size_t>(s)] = true;
        ++symbol_support[static_cast<size_t>(s)];
      }
    }
  }
  std::vector<SymbolId> frequent_symbols;
  for (size_t s = 0; s < symbol_support.size(); ++s) {
    if (symbol_support[s] >= opts.min_support) {
      frequent_symbols.push_back(static_cast<SymbolId>(s));
    }
  }

  std::vector<Sequence> frontier;
  for (SymbolId s : frequent_symbols) {
    Sequence p{s};
    if (opts.min_length <= 1) {
      if (opts.max_patterns != 0 && found.size() >= opts.max_patterns) {
        return Status::OutOfRange(
            "frequent pattern count exceeded max_patterns cap");
      }
      found.emplace_back(p, symbol_support[static_cast<size_t>(s)]);
    }
    frontier.push_back(std::move(p));
  }

  // Levels k+1: extend every frontier pattern by every frequent symbol.
  size_t level = 1;
  while (!frontier.empty() &&
         (opts.max_length == 0 || level < opts.max_length)) {
    std::vector<Sequence> next;
    for (const Sequence& base : frontier) {
      for (SymbolId s : frequent_symbols) {
        SEQHIDE_COUNTER_INC("mine.levelwise.candidates");
        Sequence candidate = base;
        candidate.Append(s);
        size_t support = Support(candidate, db);
        if (support < opts.min_support) continue;
        if (candidate.size() >= opts.min_length) {
          if (opts.max_patterns != 0 && found.size() >= opts.max_patterns) {
            return Status::OutOfRange(
                "frequent pattern count exceeded max_patterns cap");
          }
          found.emplace_back(candidate, support);
        }
        next.push_back(std::move(candidate));
      }
    }
    frontier = std::move(next);
    ++level;
  }
  std::sort(found.begin(), found.end());
  FrequentPatternSet result;
  for (const auto& [pattern, support] : found) result.Add(pattern, support);
  return result;
}

}  // namespace proptest
}  // namespace seqhide
