#include "src/match/constrained_count.h"

#include "src/common/logging.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/subsequence.h"
#include "src/obs/macros.h"
#include "src/seq/signature.h"

namespace seqhide {

uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq) {
  MatchScratch scratch;
  return CountConstrainedMatchings(pattern, spec, seq, &scratch);
}

uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq,
                                   MatchScratch* scratch) {
  SEQHIDE_DCHECK(spec.Validate(pattern.size()).ok())
      << spec.Validate(pattern.size()).ToString();
  if (spec.IsUnconstrained()) return CountMatchings(pattern, seq, scratch);
  return CountLanguageMatchings(SequenceLanguage(pattern, spec, seq), scratch);
}

uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq) {
  MatchScratch scratch;
  return CountConstrainedMatchingsTotal(patterns, constraints, seq, &scratch);
}

uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq,
    MatchScratch* scratch) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  uint64_t total = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? ConstraintSpec() : constraints[p];
    total = SatAdd(total,
                   CountConstrainedMatchings(patterns[p], spec, seq, scratch));
  }
  return total;
}

bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq) {
  return CountConstrainedMatchings(pattern, spec, seq) > 0;
}

bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq, MatchScratch* scratch) {
  return CountConstrainedMatchings(pattern, spec, seq, scratch) > 0;
}

namespace {

// The screened loop of ConstrainedSupport / ConstrainedMatchCount;
// `count_matchings` picks Σ|M| over the supporting-row count.
uint64_t ScreenedDatabaseQuery(const Sequence& pattern,
                               const ConstraintSpec& spec,
                               const DatabaseView& db, bool count_matchings,
                               MatchScratch* scratch) {
  MatchScratch local;
  if (scratch == nullptr) scratch = &local;
  const uint64_t* signatures = db.signatures();
  const uint64_t need = SequenceSignature(pattern);
  uint64_t value = 0;
  size_t scanned = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    if (signatures != nullptr && (signatures[t] & need) != need) continue;
    ++scanned;
    const SequenceView row = db.row(t);
    if (!ScreenEmbeds(pattern, row)) continue;
    if (count_matchings) {
      value = SatAdd(value,
                     CountConstrainedMatchings(pattern, spec, row, scratch));
    } else if (spec.IsUnconstrained() ||
               HasConstrainedMatch(pattern, spec, row, scratch)) {
      ++value;
    }
  }
  SEQHIDE_COUNTER_ADD("bindb.candidate.rows", scanned);
  SEQHIDE_COUNTER_ADD("bindb.candidate.pruned", db.size() - scanned);
  return value;
}

}  // namespace

size_t ConstrainedSupport(const Sequence& pattern, const ConstraintSpec& spec,
                          const DatabaseView& db, MatchScratch* scratch) {
  return static_cast<size_t>(ScreenedDatabaseQuery(
      pattern, spec, db, /*count_matchings=*/false, scratch));
}

size_t ConstrainedSupport(const Sequence& pattern, const ConstraintSpec& spec,
                          const SequenceDatabase& db) {
  return ConstrainedSupport(pattern, spec, DatabaseView(db));
}

uint64_t ConstrainedMatchCount(const Sequence& pattern,
                               const ConstraintSpec& spec,
                               const DatabaseView& db, MatchScratch* scratch) {
  return ScreenedDatabaseQuery(pattern, spec, db, /*count_matchings=*/true,
                               scratch);
}

}  // namespace seqhide
