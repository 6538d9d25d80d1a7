// The stage-1 counting / support kernel: one fixed design for every
// pattern set.
//
//   * Unconstrained patterns, one or many, are counted by the shared
//     pattern-prefix trie (pattern_trie.h) in ONE pass per row: Lemma 2's
//     DP with its prefix rows shared across the sensitive set. When the
//     scratch budget refuses the trie's node row, each pattern falls back
//     to its own Lemma 2 DP.
//   * Constrained patterns run the Lemma 4 / 5 DPs (constrained_count.h)
//     behind two screens: the row-signature screen (Admits) and the greedy
//     embedding screen (ScreenEmbeds) — no unconstrained embedding, no
//     matching under any constraint.
//   * Existence (HasMatch) is the greedy embedding test, then the
//     constrained DP when the pattern has a constraint.
//
// Every answer is bit-identical to the per-pattern DPs (tested against the
// brute-force oracles in src/testing/).
//
// A MatchKernel is built once per run from the pattern set and then
// shared read-only across worker threads; all mutable state lives in the
// caller's per-thread MatchScratch. It borrows `patterns`/`constraints`
// — the caller keeps them alive for the kernel's lifetime.

#ifndef SEQHIDE_MATCH_KERNEL_H_
#define SEQHIDE_MATCH_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/pattern_trie.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/signature.h"
#include "src/seq/view.h"

namespace seqhide {

class MatchKernel {
 public:
  // `constraints` must be empty or parallel to `patterns`; both must
  // outlive the kernel.
  MatchKernel(const std::vector<Sequence>& patterns,
              const std::vector<ConstraintSpec>& constraints);

  size_t num_patterns() const { return patterns_->size(); }

  // |M_{S_p}^T| under pattern p's constraint spec, by pattern p's own DP
  // behind the embedding screen (CountRow's per-pattern path).
  uint64_t CountPattern(size_t p, SequenceView seq,
                        MatchScratch* scratch) const;

  // Per-pattern counts for every pattern in one call: one trie pass for
  // the unconstrained patterns, CountPattern for the rest; counts is
  // resized to num_patterns(). Returns the saturating total over patterns.
  uint64_t CountRow(SequenceView seq, MatchScratch* scratch,
                    std::vector<uint64_t>* counts) const;

  // Screened CountRow: `row_signature` is SequenceSignature(seq) (or any
  // superset of its bits). A pattern outside the trie that the signature
  // does not admit counts 0 with no work; the counts are identical to the
  // unscreened call's.
  uint64_t CountRow(SequenceView seq, uint64_t row_signature,
                    MatchScratch* scratch,
                    std::vector<uint64_t>* counts) const;

  // The row signature Admits screens with (src/seq/signature.h).
  uint64_t Signature(SequenceView row) const { return SequenceSignature(row); }

  // False iff a row with this signature lacks a symbol of pattern p, and
  // so can hold no matching of it (src/seq/signature.h). True is only a
  // "maybe": distinct symbols may share a bit.
  bool Admits(size_t p, uint64_t row_signature) const {
    return (pattern_signatures_[p] & ~row_signature) == 0;
  }

  // Does pattern p have a (constrained) matching in seq? The greedy
  // embedding test, then the constrained DP for a constrained pattern.
  bool HasMatch(size_t p, SequenceView seq, MatchScratch* scratch) const;

 private:
  const ConstraintSpec& spec_for(size_t p) const;

  const std::vector<Sequence>* patterns_;
  const std::vector<ConstraintSpec>* constraints_;
  // Covers exactly the unconstrained patterns.
  PatternTrie trie_;
  // SequenceSignature of each pattern (Admits).
  std::vector<uint64_t> pattern_signatures_;
};

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_KERNEL_H_
