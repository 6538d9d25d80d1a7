// Second stage of the paper's two-stage sanitization algorithm (§4).
//
// After the marking stage, the database contains Δ symbols. The paper
// describes three release policies:
//
//   1. keep the Δs (they read as missing values)     — no code needed;
//   2. delete the Δs                                  — DeleteMarks();
//   3. replace each Δ with a symbol from Σ            — ReplaceMarks().
//
// Replacement is the delicate one: "we must take care of the possibility
// of re-generating fake patterns and also re-generating sensitive
// patterns". ReplaceMarks guarantees the second property by construction —
// a candidate symbol is committed only if the sequence still contains no
// (constrained) occurrence of any sensitive pattern — and mitigates the
// first by choosing replacement symbols that add as few new matchings as
// possible. VerifyNoNewFrequentPatterns measures the residual fake-pattern
// risk against a mining threshold.
//
// Note: deletion cannot re-generate an unconstrained pattern — removing an
// element never creates a new subsequence (Theorem 2's observation) — so
// DeleteMarks needs no safety check for them. It does shorten gaps and
// windows, though, so ReplaceMarks checks its own deletions.

#ifndef SEQHIDE_HIDE_SECOND_STAGE_H_
#define SEQHIDE_HIDE_SECOND_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/constraints/constraints.h"
#include "src/seq/database.h"

namespace seqhide {

// Removes every Δ from every sequence. Sequences that become empty are
// dropped from the database. Returns the number of deleted symbols.
size_t DeleteMarks(SequenceDatabase* db);

enum class ReplacementStrategy {
  // For each Δ, among the symbols that keep every sensitive pattern
  // hidden, pick one that minimizes the number of new pattern-relevant
  // matchings it creates; ties broken toward the globally most frequent
  // symbol (preserving the symbol distribution of D).
  kLeastHarm,
  // Among the safe symbols, pick uniformly at random (needs `seed`).
  kRandomSafe,
};

struct ReplaceOptions {
  ReplacementStrategy strategy = ReplacementStrategy::kLeastHarm;
  uint64_t seed = 1;
  // When no safe replacement symbol exists for a Δ, delete that position
  // instead (true, default) or keep the Δ (false). A row's stuck Δs stay
  // anyway when deleting them would complete an occurrence of a max-gap
  // or window pattern the row did not hold.
  bool delete_when_stuck = true;
};

struct ReplaceReport {
  size_t replaced = 0;       // Δs replaced with a real symbol
  size_t deleted = 0;        // Δs deleted because no symbol was safe
  size_t kept_marked = 0;    // Δs left in place (not deleted, or unsafe to)
};

// Replaces Δs subject to the sensitive patterns staying hidden: a symbol
// is committed only if its row then holds no (constrained) occurrence of
// any pattern, so no pattern's support rises across the stage. Rows the
// marking stage left supporting by design (ψ > 0) keep their
// occurrences. Returns Internal if a support rose anyway. `constraints`
// is empty or parallel to `patterns`.
Result<ReplaceReport> ReplaceMarks(SequenceDatabase* db,
                                   const std::vector<Sequence>& patterns,
                                   const std::vector<ConstraintSpec>& constraints,
                                   const ReplaceOptions& options);

// Fake-pattern audit: number of patterns frequent (support >= sigma,
// length <= max_length) in `released` but NOT frequent in `original`.
// Marking alone can never produce such patterns; replacement can, and the
// paper flags this as the hazard of policy 3.
Result<size_t> CountFakeFrequentPatterns(const SequenceDatabase& original,
                                         const SequenceDatabase& released,
                                         size_t sigma, size_t max_length);

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_SECOND_STAGE_H_
