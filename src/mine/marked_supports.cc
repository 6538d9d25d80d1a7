#include "src/mine/marked_supports.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/logging.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// Leftmost-embedding end meaning "the prefix does not embed".
constexpr size_t kAbsent = static_cast<size_t>(-1);

// A row's real symbols as sorted (symbol, position) keys, so the next
// occurrence of a symbol is one binary search, absent symbols included.
class RowIndex {
 public:
  void Build(const std::vector<SymbolId>& row) {
    keys_.clear();
    for (size_t j = 0; j < row.size(); ++j) {
      if (IsRealSymbol(row[j])) keys_.push_back(Key(row[j], j));
    }
    std::sort(keys_.begin(), keys_.end());
  }

  // Position after the leftmost occurrence of `symbol` at or after
  // `from`; kAbsent when there is none or `from` is already kAbsent.
  size_t NextEnd(size_t from, SymbolId symbol) const {
    if (from == kAbsent) return kAbsent;
    auto it = std::lower_bound(keys_.begin(), keys_.end(), Key(symbol, from));
    if (it == keys_.end() || (*it >> 32) != static_cast<uint64_t>(symbol)) {
      return kAbsent;
    }
    return static_cast<size_t>(*it & 0xffffffffu) + 1;
  }

 private:
  static uint64_t Key(SymbolId symbol, size_t pos) {
    return (static_cast<uint64_t>(symbol) << 32) | static_cast<uint64_t>(pos);
  }

  std::vector<uint64_t> keys_;
};

// Index of the last position where `marked` differs from `original`
// (row `index`), -1 when the rows are equal, or an error when `marked` is
// not a Δ-only marking of it.
Result<ptrdiff_t> LastChange(const Sequence& original, const Sequence& marked,
                             size_t index) {
  if (original.size() != marked.size()) {
    return Status::InvalidArgument(
        "row " + std::to_string(index) +
        " changed length; marking must substitute Δ in place");
  }
  ptrdiff_t last = -1;
  for (size_t j = 0; j < original.size(); ++j) {
    if (original[j] == marked[j]) continue;
    if (marked[j] != kDeltaSymbol) {
      return Status::InvalidArgument(
          "row " + std::to_string(index) + " position " + std::to_string(j) +
          " holds a non-Δ substitution; not a marking of the original");
    }
    last = static_cast<ptrdiff_t>(j);
  }
  return last;
}

}  // namespace

MarkedSupports::MarkedSupports(const FrequentPatternSet& frequent,
                               const SequenceDatabase& original)
    : original_(original) {
  supports_.reserve(frequent.size());
  nodes_.reserve(frequent.size());
  // open[d] is the node at depth d + 1 on the path of the last pattern;
  // a new node at depth d + 1 closes it and everything deeper.
  std::vector<uint32_t> open;
  const std::vector<SymbolId>* last = nullptr;
  auto close_from = [&](size_t depth) {
    for (size_t d = depth; d < open.size(); ++d) {
      nodes_[open[d]].subtree_end = static_cast<uint32_t>(nodes_.size());
    }
    open.resize(depth);
  };
  for (const auto& [pattern, support] : frequent.patterns()) {
    const std::vector<SymbolId>& p = pattern.symbols();
    size_t shared = 0;
    if (last != nullptr) {
      shared = std::mismatch(last->begin(), last->end(), p.begin(), p.end())
                   .first -
               last->begin();
    }
    close_from(shared);
    for (size_t d = shared; d < p.size(); ++d) {
      open.push_back(static_cast<uint32_t>(nodes_.size()));
      nodes_.push_back(Node{p[d], static_cast<uint32_t>(d + 1), 0, kNoPattern});
    }
    max_depth_ = std::max(max_depth_, static_cast<uint32_t>(p.size()));
    // The empty pattern has no node; it is in every row before and after.
    if (!p.empty()) {
      nodes_.back().pattern = static_cast<uint32_t>(supports_.size());
    }
    supports_.push_back(support);
    last = &p;
  }
  close_from(0);
}

Result<std::vector<size_t>> MarkedSupports::SupportsAfter(
    const SequenceDatabase& marked) const {
  if (original_.size() != marked.size()) {
    return Status::InvalidArgument(
        "marked database has " + std::to_string(marked.size()) +
        " rows, original has " + std::to_string(original_.size()));
  }
  std::vector<size_t> supports = supports_;
  uint64_t changed_rows = 0;
  uint64_t pattern_steps = 0;
  // ends_*[d]: leftmost-embedding end, in the original (a) and marked
  // (b) row, of the current node's ancestor at depth d (0 = root).
  std::vector<size_t> ends_a(max_depth_ + 1, 0);
  std::vector<size_t> ends_b(max_depth_ + 1, 0);
  RowIndex a;
  RowIndex b;
  const uint32_t node_count = static_cast<uint32_t>(nodes_.size());
  for (size_t row = 0; row < original_.size(); ++row) {
    SEQHIDE_ASSIGN_OR_RETURN(
        const ptrdiff_t last_change,
        LastChange(original_[row], marked[row], row));
    if (last_change < 0) continue;
    ++changed_rows;
    a.Build(original_[row].symbols());
    b.Build(marked[row].symbols());
    const size_t unchanged_from = static_cast<size_t>(last_change) + 1;
    uint32_t i = 0;
    while (i < node_count) {
      ++pattern_steps;
      const Node& node = nodes_[i];
      const size_t end_a = a.NextEnd(ends_a[node.depth - 1], node.symbol);
      if (end_a == kAbsent) {
        i = node.subtree_end;  // nothing below embeds in the original row
        continue;
      }
      const size_t end_b = b.NextEnd(ends_b[node.depth - 1], node.symbol);
      if (end_b == end_a && end_a >= unchanged_from) {
        i = node.subtree_end;  // the rows agree from here on
        continue;
      }
      ends_a[node.depth] = end_a;
      ends_b[node.depth] = end_b;
      if (end_b == kAbsent && node.pattern != kNoPattern) {
        size_t& support = supports[node.pattern];
        if (support == 0) {
          return Status::InvalidArgument(
              "pattern support would drop below zero; the frequent set was "
              "not counted on the original database");
        }
        --support;
      }
      ++i;
    }
  }
  SEQHIDE_COUNTER_ADD("eval.derive.changed_rows", changed_rows);
  SEQHIDE_COUNTER_ADD("eval.derive.pattern_steps", pattern_steps);
  return supports;
}

FrequentPatternSet FrequentAfterMarking(
    const FrequentPatternSet& frequent,
    const std::vector<size_t>& supports_after, size_t min_support) {
  SEQHIDE_CHECK_EQ(supports_after.size(), frequent.size());
  FrequentPatternSet kept;
  size_t k = 0;
  for (const auto& [pattern, support] : frequent.patterns()) {
    (void)support;
    const size_t after = supports_after[k++];
    if (after >= min_support) kept.Add(pattern, after);
  }
  return kept;
}

}  // namespace seqhide
