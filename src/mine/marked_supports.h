// Supports after Δ-marking, derived from F(D,σ) instead of re-mined.
//
// Marking replaces symbols with Δ, which matches nothing, so it can only
// destroy embeddings: every subsequence of a marked row is a subsequence
// of the original row. Hence sup_D′(S) ≤ sup_D(S) for every S, so
// F(D′,σ) ⊆ F(D,σ), and only rows that gained a Δ can lose support:
//
//   sup_D′(S) = sup_D(S) − |{changed rows T : S ⊑ T, S ⋢ T′}|.
//
// F(D′,σ) is therefore the set of patterns of F(D,σ) whose derived
// support stays ≥ σ, and the distortion measures M2/M3 need no second
// mining pass (src/eval/metrics.h).

#ifndef SEQHIDE_MINE_MARKED_SUPPORTS_H_
#define SEQHIDE_MINE_MARKED_SUPPORTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/mine/pattern_set.h"
#include "src/seq/database.h"

namespace seqhide {

// F(D,σ) indexed for repeated derivations against one original database
// (a sweep derives F(D′,σ) for every sanitized copy of the same D).
//
// The patterns' canonical order is a DFS preorder of their prefix tree,
// which is stored flat with subtree ends. For each changed row the tree
// is walked keeping each prefix's leftmost-embedding end in both the
// original and the marked row, and a subtree is skipped when the
// original row lacks its prefix, or when both rows embed the prefix at
// the same end past the row's last Δ (the rest of the row is unchanged,
// so no pattern below can lose the row). The tree holds every prefix,
// members of the set or not, so the set need not be prefix-closed (a
// min_length > 1 miner output is not).
class MarkedSupports {
 public:
  // `frequent` must carry supports w.r.t. `original`, which must outlive
  // this object.
  MarkedSupports(const FrequentPatternSet& frequent,
                 const SequenceDatabase& original);

  // sup_D′ of every pattern, in the canonical order of
  // frequent.patterns(). `marked` must be a Δ-only marking of the
  // original: the same number of rows, each of the same length,
  // differing only where `marked` holds Δ. Errors with InvalidArgument
  // when it is not, or when a support would drop below zero (the set was
  // not counted on the original).
  Result<std::vector<size_t>> SupportsAfter(
      const SequenceDatabase& marked) const;

  // sup_D of every pattern, in the same order.
  const std::vector<size_t>& supports_before() const { return supports_; }

 private:
  static constexpr uint32_t kNoPattern = UINT32_MAX;

  // A prefix-tree node: it extends its parent's prefix by `symbol` to
  // length `depth` (the root's children have depth 1). Nodes are stored
  // in DFS preorder, so its subtree is [own index, subtree_end).
  // `pattern` is the prefix's index in canonical order when it is itself
  // a member of the set.
  struct Node {
    SymbolId symbol;
    uint32_t depth;
    uint32_t subtree_end;
    uint32_t pattern;
  };

  std::vector<Node> nodes_;
  uint32_t max_depth_ = 0;
  std::vector<size_t> supports_;
  const SequenceDatabase& original_;
};

// F(D′,σ) as a pattern set: the patterns of `frequent` whose entry in
// `supports_after` (parallel to frequent.patterns()) is ≥ `min_support`,
// with those supports. Equals mining D′ with the options that mined
// `frequent` from D.
FrequentPatternSet FrequentAfterMarking(
    const FrequentPatternSet& frequent,
    const std::vector<size_t>& supports_after, size_t min_support);

}  // namespace seqhide

#endif  // SEQHIDE_MINE_MARKED_SUPPORTS_H_
