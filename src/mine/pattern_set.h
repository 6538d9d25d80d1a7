// FrequentPatternSet: the output of a frequent-sequence miner — the set
// F(D,σ) = { S ∈ Σ* : sup_D(S) ≥ σ } with each pattern's support.

#ifndef SEQHIDE_MINE_PATTERN_SET_H_
#define SEQHIDE_MINE_PATTERN_SET_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/seq/alphabet.h"
#include "src/seq/sequence.h"

namespace seqhide {

class FrequentPatternSet {
 public:
  FrequentPatternSet() = default;

  // Inserts or overwrites a pattern's support. Adding patterns in
  // canonical order (as PrefixSpan emits them) appends in amortized O(1).
  void Add(Sequence pattern, size_t support);

  bool Contains(const Sequence& pattern) const;

  // Support of `pattern`, or 0 when absent.
  size_t SupportOf(const Sequence& pattern) const;

  size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }

  // Patterns in canonical (lexicographic) order with supports.
  const std::map<Sequence, size_t>& patterns() const { return patterns_; }

  // Number of patterns present here but absent from `other` (the
  // numerator building block of measure M2).
  size_t CountMissingFrom(const FrequentPatternSet& other) const;

  // Multi-line human-readable listing (names via `alphabet`).
  std::string ToString(const Alphabet& alphabet) const;

  friend bool operator==(const FrequentPatternSet& a,
                         const FrequentPatternSet& b) {
    return a.patterns_ == b.patterns_;
  }

 private:
  std::map<Sequence, size_t> patterns_;
};

}  // namespace seqhide

#endif  // SEQHIDE_MINE_PATTERN_SET_H_
