// Subsequence predicates and support counting (paper §3.1).
//
// U ⊑ V iff U can be obtained by deleting symbols from V. The marking
// symbol Δ never matches a pattern symbol, so a marked position behaves as
// "deleted" for matching purposes while keeping positional structure.
// Patterns must not contain Δ (checked in debug builds).

#ifndef SEQHIDE_MATCH_SUBSEQUENCE_H_
#define SEQHIDE_MATCH_SUBSEQUENCE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/seq/database.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// True iff `pattern` is a subsequence of `seq`.
bool IsSubsequence(const Sequence& pattern, SequenceView seq);

// IsSubsequence as the matching kernels' embedding screen: every gap- or
// window-constrained matching is in particular an embedding, so false
// means "no matching under any constraint" and the DP can be skipped.
// Counted as match.embed_screen.calls.
bool ScreenEmbeds(const Sequence& pattern, SequenceView seq);

// Leftmost embedding of `pattern` in `seq` as 0-based positions, or nullopt
// when `pattern` is not a subsequence. Greedy leftmost matching is minimal
// position-wise, which makes it a convenient canonical witness.
std::optional<std::vector<size_t>> FirstEmbedding(const Sequence& pattern,
                                                  SequenceView seq);

// sup_D(S): number of sequences in `db` that are supersequences of
// `pattern` (paper §3.1). The DatabaseView overload serves in-memory and
// memory-mapped databases alike.
size_t Support(const Sequence& pattern, const DatabaseView& db);
size_t Support(const Sequence& pattern, const SequenceDatabase& db);

// Number of sequences supporting at least one of `patterns`
// (sup_D(S_1 ∨ ... ∨ S_n), the paper's "disjunctive" support used in the
// §6 support table).
size_t SupportAny(const std::vector<Sequence>& patterns,
                  const DatabaseView& db);
size_t SupportAny(const std::vector<Sequence>& patterns,
                  const SequenceDatabase& db);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_SUBSEQUENCE_H_
