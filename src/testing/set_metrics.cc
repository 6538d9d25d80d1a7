#include "src/testing/set_metrics.h"

#include "src/match/subsequence.h"

namespace seqhide {
namespace proptest {
namespace {

// M3 over F(D', σ) with each pattern's sup_D from `support_before`.
template <typename SupportBefore>
Result<double> MeanRelativeLoss(const FrequentPatternSet& frequent_sanitized,
                                SupportBefore support_before) {
  if (frequent_sanitized.empty()) {
    return Status::FailedPrecondition(
        "M3 undefined: F(D', sigma) is empty");
  }
  double total = 0.0;
  bool consistent = true;
  frequent_sanitized.ForEach([&](const std::vector<SymbolId>& pattern,
                                 size_t after) {
    const size_t before = support_before(Sequence(pattern));
    consistent = consistent && before != 0 && before >= after;
    if (consistent) {
      total += static_cast<double>(before - after) /
               static_cast<double>(before);
    }
  });
  if (!consistent) {
    return Status::InvalidArgument(
        "a pattern of F(D', sigma) is absent from D or its support grew; "
        "inputs inconsistent");
  }
  return total / static_cast<double>(frequent_sanitized.size());
}

}  // namespace

Result<double> OracleMeasureM2(const FrequentPatternSet& frequent_original,
                               const FrequentPatternSet& frequent_sanitized) {
  if (frequent_original.empty()) {
    return Status::FailedPrecondition(
        "M2 undefined: F(D, sigma) is empty");
  }
  // Sanity: marking cannot create frequent patterns.
  if (frequent_sanitized.CountMissingFrom(frequent_original) != 0) {
    return Status::InvalidArgument(
        "F(D', sigma) contains patterns absent from F(D, sigma); "
        "arguments are probably swapped");
  }
  double lost = static_cast<double>(frequent_original.size() -
                                    frequent_sanitized.size());
  return lost / static_cast<double>(frequent_original.size());
}

Result<double> OracleMeasureM3(const SequenceDatabase& original,
                               const FrequentPatternSet& frequent_sanitized) {
  return MeanRelativeLoss(frequent_sanitized, [&](const Sequence& pattern) {
    return Support(pattern, original);
  });
}

Result<double> OracleMeasureM3(const FrequentPatternSet& frequent_original,
                               const FrequentPatternSet& frequent_sanitized) {
  return MeanRelativeLoss(frequent_sanitized, [&](const Sequence& pattern) {
    return frequent_original.SupportOf(pattern);
  });
}

}  // namespace proptest
}  // namespace seqhide
