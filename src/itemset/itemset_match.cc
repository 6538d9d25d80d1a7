#include "src/itemset/itemset_match.h"

#include "src/match/scratch.h"

namespace seqhide {

bool IsItemsetSubsequence(const ItemsetSequence& pattern,
                          const ItemsetSequence& seq) {
  const ConstraintSpec unconstrained;
  return Embeds(ItemsetLanguage(pattern, unconstrained, seq));
}

size_t ItemsetSupport(const ItemsetSequence& pattern,
                      const ItemsetDatabase& db) {
  size_t count = 0;
  for (const auto& seq : db.sequences()) {
    if (IsItemsetSubsequence(pattern, seq)) ++count;
  }
  return count;
}

uint64_t CountItemsetMatchings(const ItemsetSequence& pattern,
                               const ConstraintSpec& spec,
                               const ItemsetSequence& seq) {
  MatchScratch scratch;
  return CountLanguageMatchings(ItemsetLanguage(pattern, spec, seq),
                                &scratch);
}

Status ValidatePattern(const ItemsetSequence& pattern,
                       const ConstraintSpec& spec) {
  if (pattern.empty()) {
    return Status::InvalidArgument("sensitive pattern must be non-empty");
  }
  for (size_t e = 0; e < pattern.size(); ++e) {
    if (pattern[e].empty()) {
      return Status::InvalidArgument(
          "sensitive pattern elements must be non-empty itemsets");
    }
  }
  return spec.Validate(pattern.size());
}

}  // namespace seqhide
