#include "src/match/position_delta.h"

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/prefix_table.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// Mark-and-recount with scratch->marked as the working copy (re-assigned
// per position, so no per-position allocation once its capacity covers
// |seq|). Each recount goes through CountConstrainedMatchings.
void PositionDeltasByMarkingInto(const Sequence& pattern,
                                 const ConstraintSpec& spec,
                                 SequenceView seq, MatchScratch* scratch,
                                 std::vector<uint64_t>* out) {
  SEQHIDE_COUNTER_INC("delta.marking_calls");
  DeltasByClearing(SequenceLanguage(pattern, spec, seq), &scratch->marked,
                   [&](const SequenceLanguage& lang) {
                     return CountConstrainedMatchings(pattern, spec,
                                                      lang.row(), scratch);
                   },
                   out);
}

}  // namespace

std::vector<uint64_t> PositionDeltas(const Sequence& pattern,
                                     const ConstraintSpec& spec,
                                     SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> deltas;
  PositionDeltasInto(pattern, spec, seq, &scratch, &deltas);
  return deltas;
}

void PositionDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch,
                        std::vector<uint64_t>* out) {
  SEQHIDE_CHECK(!pattern.empty());
  if (seq.empty()) {
    out->clear();
    return;
  }

  if (spec.HasWindow()) {
    // The window couples both halves of the embedding through the first
    // matched position; use the always-correct mark-and-recount method.
    PositionDeltasByMarkingInto(pattern, spec, seq, scratch, out);
    return;
  }
  SEQHIDE_COUNTER_INC("delta.fast_calls");

  // fwd[k][j] (1-based j): gap-valid embeddings of S[1..k] ending at j.
  if (spec.HasGaps()) {
    BuildGapEndTableInto(pattern, spec, seq, scratch, &scratch->fwd);
  } else {
    BuildPrefixEndTableInto(pattern, seq, scratch, &scratch->fwd);
  }
  CombineDeltas(SequenceLanguage(pattern, spec, seq), scratch, out);
}

std::vector<uint64_t> PositionDeltasTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> total;
  PositionDeltasTotalInto(patterns, constraints, seq, &scratch, &total);
  return total;
}

void PositionDeltasTotalInto(const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* out) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  out->assign(seq.size(), 0);
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? ConstraintSpec() : constraints[p];
    std::vector<uint64_t>& d = scratch->pattern_deltas;
    PositionDeltasInto(patterns[p], spec, seq, scratch, &d);
    for (size_t j = 0; j < seq.size(); ++j) {
      (*out)[j] = SatAdd((*out)[j], d[j]);
    }
  }
}

std::vector<uint64_t> PositionDeltasByDeletion(const Sequence& pattern,
                                               SequenceView seq) {
  SEQHIDE_COUNTER_INC("delta.deletion_calls");
  MatchScratch scratch;
  const uint64_t base = CountMatchings(pattern, seq, &scratch);
  std::vector<uint64_t> deltas(seq.size(), 0);
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!IsRealSymbol(seq[i])) continue;
    std::vector<SymbolId> reduced;
    reduced.reserve(seq.size() - 1);
    for (size_t j = 0; j < seq.size(); ++j) {
      if (j != i) reduced.push_back(seq[j]);
    }
    uint64_t without =
        CountMatchings(pattern, Sequence(std::move(reduced)), &scratch);
    SEQHIDE_DCHECK(without <= base);
    deltas[i] = base - without;
  }
  return deltas;
}

std::vector<uint64_t> PositionDeltasByMarking(const Sequence& pattern,
                                              const ConstraintSpec& spec,
                                              SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> deltas;
  PositionDeltasByMarkingInto(pattern, spec, seq, &scratch, &deltas);
  return deltas;
}

}  // namespace seqhide
