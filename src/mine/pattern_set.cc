#include "src/mine/pattern_set.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "src/common/logging.h"
#include "src/obs/macros.h"
#include "src/seq/sequence.h"

namespace seqhide {
namespace {

// Leftmost-embedding end meaning "the prefix does not embed".
constexpr size_t kAbsent = static_cast<size_t>(-1);

// A row's real symbols as sorted (symbol, position) keys, so the next
// occurrence of a symbol is one binary search, absent symbols included.
class RowIndex {
 public:
  void Build(SequenceView row) {
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
Result<ptrdiff_t> LastChange(SequenceView original, SequenceView marked,
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

void FrequentPatternSet::Add(SequenceView pattern, size_t support) {
  SEQHIDE_CHECK(!pattern.empty())
      << "FrequentPatternSet holds no empty pattern";
  // The previous pattern is the path; find where the new one leaves it.
  size_t shared = 0;
  while (shared < path_.size() && shared < pattern.size() &&
         nodes_[path_[shared]].symbol == pattern[shared]) {
    ++shared;
  }
  SEQHIDE_CHECK(shared < pattern.size() &&
                (shared == path_.size() ||
                 nodes_[path_[shared]].symbol < pattern[shared]))
      << "FrequentPatternSet::Add needs patterns in strictly increasing "
         "canonical order";
  SEQHIDE_CHECK(nodes_.size() + pattern.size() - shared < kNoPattern)
      << "FrequentPatternSet outgrew its 32-bit node indices";
  path_.resize(shared);
  for (size_t d = shared; d < pattern.size(); ++d) {
    path_.push_back(static_cast<uint32_t>(nodes_.size()));
    nodes_.push_back(
        Node{pattern[d], static_cast<uint32_t>(d + 1), 0, kNoPattern});
  }
  // Every node on the path now ends its subtree after the new last node.
  for (uint32_t n : path_) {
    nodes_[n].subtree_end = static_cast<uint32_t>(nodes_.size());
  }
  nodes_.back().pattern = static_cast<uint32_t>(supports_.size());
  supports_.push_back(support);
  max_depth_ = std::max(max_depth_, static_cast<uint32_t>(pattern.size()));
}

size_t FrequentPatternSet::IndexOf(SequenceView pattern) const {
  if (pattern.empty()) return kNotFound;
  // [first, end) holds the children of the node matched so far.
  uint32_t first = 0;
  uint32_t end = static_cast<uint32_t>(nodes_.size());
  for (size_t d = 0; d < pattern.size(); ++d) {
    while (first < end && nodes_[first].symbol < pattern[d]) {
      first = nodes_[first].subtree_end;
    }
    if (first >= end || nodes_[first].symbol != pattern[d]) return kNotFound;
    end = nodes_[first].subtree_end;
    ++first;
  }
  const uint32_t k = nodes_[first - 1].pattern;
  return k == kNoPattern ? kNotFound : k;
}

Result<std::vector<size_t>> FrequentPatternSet::SupportsAfter(
    const DatabaseView& original, const DatabaseView& marked) const {
  if (original.size() != marked.size()) {
    return Status::InvalidArgument(
        "marked database has " + std::to_string(marked.size()) +
        " rows, original has " + std::to_string(original.size()));
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
  for (size_t row = 0; row < original.size(); ++row) {
    const SequenceView original_row = original.row(row);
    const SequenceView marked_row = marked.row(row);
    SEQHIDE_ASSIGN_OR_RETURN(const ptrdiff_t last_change,
                             LastChange(original_row, marked_row, row));
    if (last_change < 0) continue;
    ++changed_rows;
    a.Build(original_row);
    b.Build(marked_row);
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

size_t FrequentPatternSet::CountMissingFrom(
    const FrequentPatternSet& other) const {
  size_t missing = 0;
  ForEach([&](const std::vector<SymbolId>& pattern, size_t) {
    if (!other.Contains(pattern)) ++missing;
  });
  return missing;
}

std::string FrequentPatternSet::ToString(const Alphabet& alphabet) const {
  std::ostringstream out;
  ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
    out << Sequence(pattern).ToString(alphabet) << "  (sup=" << support
        << ")\n";
  });
  return out.str();
}

}  // namespace seqhide
