// FrequentPatternSet: the output of a frequent-sequence miner — the set
// F(D,σ) = { S ∈ Σ* : sup_D(S) ≥ σ } with each pattern's support — stored
// as its patterns' prefix tree, flat in DFS preorder. The patterns'
// canonical (lexicographic) order is that preorder, so a miner emitting
// canonical order appends to the tree directly.
//
// Marking replaces symbols with Δ, which matches nothing, so it can only
// destroy embeddings: sup_D′(S) ≤ sup_D(S) for every S, F(D′,σ) ⊆ F(D,σ),
// and only rows that gained a Δ can lose support:
//
//   sup_D′(S) = sup_D(S) − |{changed rows T : S ⊑ T, S ⋢ T′}|.
//
// So SupportsAfter derives every pattern's sup_D′ from the set, F(D′,σ)
// is the patterns whose derived support stays ≥ σ, and M2/M3 need no
// second mining pass (src/eval/metrics.h).

#ifndef SEQHIDE_MINE_PATTERN_SET_H_
#define SEQHIDE_MINE_PATTERN_SET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/seq/alphabet.h"
#include "src/seq/view.h"

namespace seqhide {

class FrequentPatternSet {
 public:
  // IndexOf's answer for a pattern that is not in the set.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  FrequentPatternSet() = default;

  // Appends a non-empty pattern with its support. Patterns must come in
  // strictly increasing canonical order, as every miner emits them; an
  // out-of-order, repeated or empty pattern fails a CHECK. Only the tree
  // nodes past the prefix shared with the previous pattern are added.
  void Add(SequenceView pattern, size_t support);

  // Canonical index of `pattern` (its position in ForEach order and in
  // supports()), or kNotFound. Walks the tree from the root, jumping
  // over each non-matching sibling's subtree.
  size_t IndexOf(SequenceView pattern) const;

  bool Contains(SequenceView pattern) const {
    return IndexOf(pattern) != kNotFound;
  }

  // Support of `pattern`, or 0 when absent.
  size_t SupportOf(SequenceView pattern) const {
    const size_t k = IndexOf(pattern);
    return k == kNotFound ? 0 : supports_[k];
  }

  size_t size() const { return supports_.size(); }
  bool empty() const { return supports_.empty(); }

  // Every pattern's support, in canonical order.
  const std::vector<size_t>& supports() const { return supports_; }

  // Calls fn(pattern, support) for every pattern in canonical order.
  // `pattern` is only valid during the call.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<SymbolId> pattern;
    for (const Node& node : nodes_) {
      pattern.resize(node.depth - 1);
      pattern.push_back(node.symbol);
      if (node.pattern != kNoPattern) {
        fn(std::as_const(pattern), supports_[node.pattern]);
      }
    }
  }

  // sup_D′ of every pattern, in canonical order, where this set carries
  // supports w.r.t. `original` and `marked` is a Δ-only marking of it:
  // the same number of rows, each of the same length, differing only
  // where `marked` holds Δ. Errors with InvalidArgument when it is not,
  // or when a support would drop below zero (the set was not counted on
  // the original).
  //
  // For each changed row the tree is walked keeping each prefix's
  // leftmost-embedding end in both rows; a subtree is skipped when the
  // original row lacks its prefix, or when both rows embed it at the same
  // end past the row's last Δ (nothing below can lose the row). The tree
  // holds non-member prefixes too, so the set need not be prefix-closed.
  Result<std::vector<size_t>> SupportsAfter(const DatabaseView& original,
                                            const DatabaseView& marked) const;

  // Number of patterns present here but absent from `other` (the
  // numerator building block of measure M2).
  size_t CountMissingFrom(const FrequentPatternSet& other) const;

  // Multi-line human-readable listing (names via `alphabet`).
  std::string ToString(const Alphabet& alphabet) const;

  friend bool operator==(const FrequentPatternSet& a,
                         const FrequentPatternSet& b) {
    return a.nodes_ == b.nodes_ && a.supports_ == b.supports_;
  }

 private:
  static constexpr uint32_t kNoPattern = UINT32_MAX;

  // A prefix-tree node: it extends its parent's prefix by `symbol` to
  // length `depth` (the root's children have depth 1). Nodes are stored
  // in DFS preorder, so its subtree is [own index, subtree_end), and a
  // node's children ascend by symbol. `pattern` is the prefix's
  // canonical index when it is itself a member of the set.
  struct Node {
    SymbolId symbol;
    uint32_t depth;
    uint32_t subtree_end;
    uint32_t pattern;

    friend bool operator==(const Node&, const Node&) = default;
  };

  std::vector<Node> nodes_;
  std::vector<size_t> supports_;
  // The nodes on the last added pattern's path, by depth − 1.
  std::vector<uint32_t> path_;
  uint32_t max_depth_ = 0;
};

}  // namespace seqhide

#endif  // SEQHIDE_MINE_PATTERN_SET_H_
