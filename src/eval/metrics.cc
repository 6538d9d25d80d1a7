#include "src/eval/metrics.h"

namespace seqhide {
namespace {

Status CheckSupports(const std::vector<size_t>& supports_before,
                     const std::vector<size_t>& supports_after) {
  if (supports_after.size() != supports_before.size()) {
    return Status::InvalidArgument(
        "supports before and after sanitization are not parallel");
  }
  for (size_t k = 0; k < supports_before.size(); ++k) {
    if (supports_before[k] == 0) {
      return Status::InvalidArgument(
          "F(D, sigma) holds a pattern of support 0; inputs inconsistent");
    }
    if (supports_after[k] > supports_before[k]) {
      return Status::InvalidArgument(
          "pattern support grew after sanitization; inputs inconsistent");
    }
  }
  return Status::OK();
}

}  // namespace

size_t MeasureM1(const SequenceDatabase& sanitized) {
  return sanitized.TotalMarkCount();
}

Result<double> MeasureM2(const std::vector<size_t>& supports_before,
                         const std::vector<size_t>& supports_after,
                         size_t min_support) {
  SEQHIDE_RETURN_IF_ERROR(CheckSupports(supports_before, supports_after));
  if (supports_before.empty()) {
    return Status::FailedPrecondition("M2 undefined: F(D, sigma) is empty");
  }
  size_t kept = 0;
  for (size_t support : supports_after) {
    if (support >= min_support) ++kept;
  }
  double lost = static_cast<double>(supports_before.size() - kept);
  return lost / static_cast<double>(supports_before.size());
}

Result<double> MeasureM3(const std::vector<size_t>& supports_before,
                         const std::vector<size_t>& supports_after,
                         size_t min_support) {
  SEQHIDE_RETURN_IF_ERROR(CheckSupports(supports_before, supports_after));
  double total = 0.0;
  size_t kept = 0;
  for (size_t k = 0; k < supports_before.size(); ++k) {
    if (supports_after[k] < min_support) continue;
    ++kept;
    total += static_cast<double>(supports_before[k] - supports_after[k]) /
             static_cast<double>(supports_before[k]);
  }
  if (kept == 0) {
    return Status::FailedPrecondition("M3 undefined: F(D', sigma) is empty");
  }
  return total / static_cast<double>(kept);
}

}  // namespace seqhide
