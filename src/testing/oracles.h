// Brute-force reference oracles for differential property testing.
//
// Each oracle recomputes, by definitional enumeration, a quantity that a
// fast kernel in src/match/ or src/hide/ computes by dynamic programming
// or branch and bound. The property suites (tests/prop/) assert fast ==
// oracle on hundreds of seeded random instances; when the fast side is
// wrong, the disagreement *is* the bug report.
//
// The oracles are intentionally written from scratch against the paper's
// definitions — a plain recursive walk over all embeddings — and share no
// code with the kernels they check (they do not call the DP counting, the
// prefix tables, or even match/matching_set.h, which is itself
// implemented as a position-filtered recursion). Exponential worst case
// by design: ~O(n·m·2^n); callers keep instances small (see
// GenOptions defaults in generators.h).

#ifndef SEQHIDE_TESTING_ORACLES_H_
#define SEQHIDE_TESTING_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/language.h"
#include "src/seq/database.h"
#include "src/seq/sequence.h"

namespace seqhide {
namespace proptest {

// |M_S^T| by enumerating every embedding (paper Definition 1). Saturates
// at kCountSaturated like the kernels. Empty pattern -> 1.
uint64_t OracleCountMatchings(const Sequence& pattern, const Sequence& seq);

// |{embeddings satisfying spec}| via enumerate-and-filter with the
// definitional predicate ConstraintSpec::SatisfiedBy (paper §5).
uint64_t OracleConstrainedCount(const Sequence& pattern,
                                const ConstraintSpec& spec,
                                const Sequence& seq);

// δ(T[i]) for every i: the number of spec-valid embeddings whose position
// tuple contains i (paper §4's definition, before any of Theorem 2's
// shortcuts).
std::vector<uint64_t> OraclePositionDeltas(const Sequence& pattern,
                                           const ConstraintSpec& spec,
                                           const Sequence& seq);

// The Lemma 3 table by enumeration: entry [k][j] counts embeddings of the
// length-k prefix of `pattern` whose last matched position is exactly j
// (1-based, with the [0][0] = 1 boundary), i.e. what
// FillGapEndTable (unconstrained) and BuildPrefixEndTableNaive compute by
// recurrence.
PrefixEndTable OraclePrefixEndTable(const Sequence& pattern,
                                    const Sequence& seq);

// True iff at least one spec-valid embedding exists (early-exit
// enumeration). The disclosure predicate of the hiding problem.
bool OracleHasMatch(const Sequence& pattern, const ConstraintSpec& spec,
                    const Sequence& seq);

// sup_D(S) under constraints: rows with at least one valid embedding.
size_t OracleSupport(const Sequence& pattern, const ConstraintSpec& spec,
                     const SequenceDatabase& db);

// Minimum number of Δ-marks that destroy every spec-valid matching of
// every pattern in `seq`, by exhaustive subset search in increasing
// cardinality (the §3.2 optimum). Independent of hide/hitting_set.h's
// branch and bound, which it cross-checks. `constraints` empty means
// all-unconstrained. Cost ~ sum_k C(n, k) predicate checks up to the
// optimum k — small-n use only.
size_t OracleOptimalMarks(const Sequence& seq,
                          const std::vector<Sequence>& patterns,
                          const std::vector<ConstraintSpec>& constraints);

}  // namespace proptest
}  // namespace seqhide

#endif  // SEQHIDE_TESTING_ORACLES_H_
