#include "src/testing/set_metrics.h"

#include "src/match/subsequence.h"

namespace seqhide {
namespace proptest {

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
  if (frequent_sanitized.empty()) {
    return Status::FailedPrecondition(
        "M3 undefined: F(D', sigma) is empty");
  }
  double total = 0.0;
  for (const auto& [pattern, support_after] : frequent_sanitized.patterns()) {
    size_t support_before = Support(pattern, original);
    if (support_before < support_after) {
      return Status::InvalidArgument(
          "pattern support grew after sanitization; inputs inconsistent");
    }
    if (support_before == 0) {
      return Status::InvalidArgument(
          "pattern frequent in D' but absent from D; inputs inconsistent");
    }
    total += static_cast<double>(support_before - support_after) /
             static_cast<double>(support_before);
  }
  return total / static_cast<double>(frequent_sanitized.size());
}

Result<double> OracleMeasureM3(const FrequentPatternSet& frequent_original,
                               const FrequentPatternSet& frequent_sanitized) {
  if (frequent_sanitized.empty()) {
    return Status::FailedPrecondition(
        "M3 undefined: F(D', sigma) is empty");
  }
  double total = 0.0;
  for (const auto& [pattern, support_after] : frequent_sanitized.patterns()) {
    size_t support_before = frequent_original.SupportOf(pattern);
    if (support_before == 0) {
      return Status::InvalidArgument(
          "pattern frequent in D' but absent from F(D, sigma); "
          "inputs inconsistent");
    }
    if (support_before < support_after) {
      return Status::InvalidArgument(
          "pattern support grew after sanitization; inputs inconsistent");
    }
    total += static_cast<double>(support_before - support_after) /
             static_cast<double>(support_before);
  }
  return total / static_cast<double>(frequent_sanitized.size());
}

}  // namespace proptest
}  // namespace seqhide
