#include "src/hide/sanitizer.h"

#include <sstream>

#include "src/common/logging.h"
#include "src/hide/pipeline.h"
#include "src/match/kernel.h"

namespace seqhide {

Status ValidatePattern(const Sequence& pattern, const ConstraintSpec& spec) {
  if (pattern.empty()) {
    return Status::InvalidArgument("sensitive pattern must be non-empty");
  }
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (!IsRealSymbol(pattern[i])) {
      return Status::InvalidArgument(
          "sensitive pattern contains the marking symbol");
    }
  }
  return spec.Validate(pattern.size());
}

std::string SanitizeReport::ToString() const {
  std::ostringstream out;
  out << "SanitizeReport{marks=" << marks_introduced
      << " sequences_sanitized=" << sequences_sanitized
      << " supporters_before=" << sequences_supporting_before
      << " supports_before=[";
  for (size_t i = 0; i < supports_before.size(); ++i) {
    if (i > 0) out << ",";
    out << supports_before[i];
  }
  out << "] supports_after=[";
  for (size_t i = 0; i < supports_after.size(); ++i) {
    if (i > 0) out << ",";
    out << supports_after[i];
  }
  out << "] threads=" << threads_used
      << " rows{count=" << count_rows
      << " verify_recount=" << verify_recount_rows
      << " verify_rescan=" << verify_rescan_rows << "}"
      << " rounds=" << rounds_completed << "/" << rounds_total;
  if (resumed) out << " resumed";
  if (checkpoints_written > 0) out << " checkpoints=" << checkpoints_written;
  if (saturated_rows > 0) out << " saturated=" << saturated_rows;
  if (degraded) {
    out << " DEGRADED(" << StatusCodeToString(stop_reason)
        << " victims_skipped=" << victims_skipped << " exposed=[";
    for (size_t i = 0; i < exposed.size(); ++i) {
      if (i > 0) out << ",";
      out << exposed[i].pattern_index << ":" << exposed[i].residual_support
          << ">" << exposed[i].limit;
    }
    out << "])";
  }
  out << " elapsed=" << elapsed_seconds << "s (count=" << stages.count_seconds
      << "s select=" << stages.select_seconds << "s mark="
      << stages.mark_seconds << "s verify=" << stages.verify_seconds << "s)}";
  return out.str();
}

Result<SanitizeResult> SanitizeView(
    const DatabaseView& db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints,
    const SanitizeOptions& opts) {
  return pipeline_internal::RunAlgorithm1<SequenceLanguage, MatchKernel>(
      db, patterns, constraints, opts);
}

Result<SanitizeReport> Sanitize(SequenceDatabase* db,
                                const std::vector<Sequence>& patterns,
                                const std::vector<ConstraintSpec>& constraints,
                                const SanitizeOptions& opts) {
  SEQHIDE_CHECK(db != nullptr);
  SEQHIDE_ASSIGN_OR_RETURN(
      SanitizeResult result,
      SanitizeView(DatabaseView(*db), patterns, constraints, opts));
  for (auto& [t, row] : result.overlay) {
    *db->mutable_sequence(t) = std::move(row);
  }
  return std::move(result.report);
}

Result<SanitizeReport> Sanitize(SequenceDatabase* db,
                                const std::vector<Sequence>& patterns,
                                const SanitizeOptions& opts) {
  return Sanitize(db, patterns, {}, opts);
}

}  // namespace seqhide
