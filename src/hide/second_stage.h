// Second stage of the paper's two-stage sanitization algorithm (§4).
//
// After the marking stage, the database contains Δ symbols. The paper
// describes three release policies: keep the Δs (they read as missing
// values; no code needed), delete them, or replace each with a symbol
// from Σ. Both of the last two "must take care of the possibility of
// re-generating fake patterns and also re-generating sensitive patterns".
//
// ReleaseMarks runs both through one loop. Per Δ it tries the policy's
// candidate symbols (none for kDelete) and commits the first one after
// which the row holds no (constrained) occurrence of any pattern. The Δs
// no candidate fills are stuck; a row's stuck Δs are deleted only if the
// row then holds no pattern it lacked, since deletion shortens gaps and
// windows and can complete a max-gap or max-window occurrence. Otherwise
// they stay. Deletion never creates an unconstrained subsequence, so with
// unconstrained patterns kDelete removes every Δ. The fake-pattern risk
// of replacement is mitigated by the least-harm candidate order and
// measured by CountFakeFrequentPatterns.

#ifndef SEQHIDE_HIDE_SECOND_STAGE_H_
#define SEQHIDE_HIDE_SECOND_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/constraints/constraints.h"
#include "src/seq/database.h"

namespace seqhide {

// The candidate symbols ReleaseMarks tries for each Δ.
enum class ReleasePolicy {
  // None: every Δ is stuck, so it is deleted where that is safe.
  kDelete,
  // The globally most frequent symbol that occurs in no pattern, then the
  // other neutral symbols, then pattern symbols, each by descending
  // frequency (preserving the symbol distribution of D).
  kLeastHarm,
  // Every symbol, in a fresh uniform shuffle per Δ (needs `seed`).
  kRandomSafe,
};

struct ReleaseOptions {
  ReleasePolicy policy = ReleasePolicy::kLeastHarm;
  uint64_t seed = 1;
};

struct ReleaseReport {
  size_t replaced = 0;  // Δs replaced with a real symbol
  size_t deleted = 0;   // Δs deleted (no candidate was safe)
  size_t kept = 0;      // Δs left in place: deleting them was unsafe
  // Per pattern, its constrained support in the released database.
  std::vector<size_t> supports;
};

// Releases the Δs of `db` under `options.policy` as described above.
// Only rows holding a Δ are examined; rows left with no symbol are
// dropped. Rows the marking stage left supporting by design (ψ > 0) keep
// their occurrences, and no replacement commits in them. One screened
// support pass over the released database fills `supports`; it returns
// Internal if a support exceeds `max_supports` (the verified supports
// after marking). `constraints` is empty or parallel to `patterns`, and
// `max_supports` is parallel to `patterns`.
Result<ReleaseReport> ReleaseMarks(
    SequenceDatabase* db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints,
    const std::vector<size_t>& max_supports, const ReleaseOptions& options);

// Fake-pattern audit: number of patterns frequent (support >= sigma,
// length <= max_length) in `released` but NOT frequent in `original`.
// Marking alone can never produce such patterns; replacement can, and the
// paper flags this as the hazard of policy 3.
Result<size_t> CountFakeFrequentPatterns(const SequenceDatabase& original,
                                         const SequenceDatabase& released,
                                         size_t sigma, size_t max_length);

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_SECOND_STAGE_H_
