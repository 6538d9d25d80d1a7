#include "src/eval/border.h"

#include <algorithm>
#include <utility>

#include "src/match/subsequence.h"

namespace seqhide {
namespace {

Result<double> LostFraction(size_t lost, size_t border_size) {
  if (border_size == 0) {
    return Status::FailedPrecondition(
        "border damage undefined: the original positive border is empty");
  }
  return static_cast<double>(lost) / static_cast<double>(border_size);
}

}  // namespace

FrequentPatternSet PositiveBorder(const FrequentPatternSet& frequent) {
  // A pattern can only be dominated by a strictly longer pattern, so
  // bucket by length and test against longer buckets only.
  std::vector<std::pair<Sequence, size_t>> patterns;
  size_t max_len = 0;
  frequent.ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
    patterns.emplace_back(Sequence(pattern), support);
    max_len = std::max(max_len, pattern.size());
  });
  std::vector<std::vector<const Sequence*>> by_length(max_len + 1);
  for (const auto& [pattern, support] : patterns) {
    (void)support;
    by_length[pattern.size()].push_back(&pattern);
  }

  FrequentPatternSet border;
  for (const auto& [pattern, support] : patterns) {
    bool maximal = true;
    for (size_t len = pattern.size() + 1; len <= max_len && maximal; ++len) {
      for (const Sequence* longer : by_length[len]) {
        if (IsSubsequence(pattern, *longer)) {
          maximal = false;
          break;
        }
      }
    }
    if (maximal) border.Add(pattern, support);
  }
  return border;
}

std::vector<size_t> PositiveBorderOfClosedSet(
    const FrequentPatternSet& frequent) {
  std::vector<bool> dominated(frequent.size(), false);
  std::vector<SymbolId> deletion;
  frequent.ForEach([&](const std::vector<SymbolId>& pattern, size_t) {
    for (size_t i = 0; i < pattern.size(); ++i) {
      // Deleting either of two equal neighbours leaves the same pattern.
      if (i > 0 && pattern[i] == pattern[i - 1]) continue;
      deletion.assign(pattern.begin(), pattern.begin() + i);
      deletion.insert(deletion.end(), pattern.begin() + i + 1, pattern.end());
      const size_t k = frequent.IndexOf(deletion);
      if (k != FrequentPatternSet::kNotFound) dominated[k] = true;
    }
  });
  std::vector<size_t> border;
  for (size_t k = 0; k < dominated.size(); ++k) {
    if (!dominated[k]) border.push_back(k);
  }
  return border;
}

Result<double> MeasureBorderDamage(const std::vector<size_t>& border,
                                   const std::vector<size_t>& supports_after,
                                   size_t min_support) {
  size_t lost = 0;
  for (size_t k : border) {
    if (k >= supports_after.size()) {
      return Status::InvalidArgument(
          "border index past the supports of F(D, sigma)");
    }
    if (supports_after[k] < min_support) ++lost;
  }
  return LostFraction(lost, border.size());
}

Result<double> MeasureBorderDamage(
    const FrequentPatternSet& frequent_original,
    const FrequentPatternSet& frequent_sanitized) {
  const FrequentPatternSet border = PositiveBorder(frequent_original);
  return LostFraction(border.CountMissingFrom(frequent_sanitized),
                      border.size());
}

}  // namespace seqhide
