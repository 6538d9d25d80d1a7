#include "src/temporal/timed_match.h"

#include "src/common/logging.h"
#include "src/match/scratch.h"

namespace seqhide {

uint64_t CountTimedMatchings(const Sequence& pattern,
                             const TimeConstraintSpec& spec,
                             const TimedSequence& seq) {
  SEQHIDE_DCHECK(spec.Validate().ok());
  MatchScratch scratch;
  return CountLanguageMatchings(TimedLanguage(pattern, spec, seq), &scratch);
}

size_t TimedSupport(const Sequence& pattern, const TimeConstraintSpec& spec,
                    const std::vector<TimedSequence>& db) {
  MatchScratch scratch;
  return LanguageSupport<TimedLanguage>(pattern, spec, db, &scratch);
}

Status ValidatePattern(const Sequence& pattern,
                       const TimeConstraintSpec& spec) {
  if (pattern.empty()) {
    return Status::InvalidArgument("sensitive pattern must be non-empty");
  }
  if (pattern.MarkCount() > 0) {
    return Status::InvalidArgument(
        "sensitive pattern must not contain the marking symbol");
  }
  return spec.Validate();
}

}  // namespace seqhide
