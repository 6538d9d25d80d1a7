#include "src/mine/constrained_miner.h"

#include <vector>

#include "src/match/constrained_count.h"

namespace seqhide {

Result<FrequentPatternSet> MineConstrainedFrequentSequences(
    const SequenceDatabase& db, const ConstraintSpec& uniform_spec,
    const MinerOptions& opts) {
  if (uniform_spec.HasPerArrowGaps()) {
    return Status::InvalidArgument(
        "constrained mining needs a uniform (or window-only) spec; "
        "per-arrow bounds are tied to a single pattern length");
  }
  // Candidate generation: unconstrained mining is a complete superset
  // (constrained support <= unconstrained support).
  SEQHIDE_ASSIGN_OR_RETURN(FrequentPatternSet candidates,
                           MineFrequentSequences(db, opts));
  FrequentPatternSet result;
  candidates.ForEach([&](const std::vector<SymbolId>& symbols, size_t) {
    // A window must be able to fit the pattern; skip impossible lengths.
    if (uniform_spec.HasWindow() &&
        *uniform_spec.max_window() < symbols.size()) {
      return;
    }
    const Sequence pattern(symbols);
    size_t support = ConstrainedSupport(pattern, uniform_spec, db);
    if (support >= opts.min_support) result.Add(pattern, support);
  });
  return result;
}

}  // namespace seqhide
