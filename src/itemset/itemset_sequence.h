// Itemset sequences: the classical sequential-pattern setting
// [Agrawal & Srikant, ICDE'95] handled by the paper's §7.1 extension.
//
// Each element of a sequence is a non-empty *set* of items; a pattern
// element S[j] matches a data element T[i] iff S[j] ⊆ T[i]. Sanitization
// marks individual items inside an element (removing them from the set)
// rather than whole positions — an element left empty behaves like a Δ.

#ifndef SEQHIDE_ITEMSET_ITEMSET_SEQUENCE_H_
#define SEQHIDE_ITEMSET_ITEMSET_SEQUENCE_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/seq/alphabet.h"
#include "src/seq/types.h"

namespace seqhide {

// A sorted set of item ids. Invariant: strictly increasing (enforced by
// Normalize / the constructors below).
class Itemset {
 public:
  Itemset() = default;
  explicit Itemset(std::vector<SymbolId> items);
  Itemset(std::initializer_list<SymbolId> items);

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const std::vector<SymbolId>& items() const { return items_; }

  bool Contains(SymbolId item) const;

  // Subset test: *this ⊆ other. Both sorted => linear merge.
  bool IsSubsetOf(const Itemset& other) const;

  // Removes `item` if present; returns whether it was present. This is
  // the marking operation of §7.1 (the item is replaced by Δ, which can
  // match nothing, i.e. it is gone for matching purposes).
  bool Remove(SymbolId item);

  std::string ToString(const Alphabet& alphabet) const;

  friend bool operator==(const Itemset& a, const Itemset& b) {
    return a.items_ == b.items_;
  }
  friend bool operator<(const Itemset& a, const Itemset& b) {
    return a.items_ < b.items_;
  }

 private:
  std::vector<SymbolId> items_;
};

// A sequence of itemsets.
class ItemsetSequence {
 public:
  ItemsetSequence() = default;
  explicit ItemsetSequence(std::vector<Itemset> elements)
      : elements_(std::move(elements)) {}
  ItemsetSequence(std::initializer_list<Itemset> elements)
      : elements_(elements) {}

  size_t size() const { return elements_.size(); }
  bool empty() const { return elements_.empty(); }

  const Itemset& operator[](size_t i) const { return elements_[i]; }
  Itemset* mutable_element(size_t i);

  void Append(Itemset element) { elements_.push_back(std::move(element)); }

  // Clears element i: every item is marked, so it matches nothing, like a
  // Δ in a plain sequence.
  void Mark(size_t i) { *mutable_element(i) = Itemset(); }

  // Total number of items across all elements.
  size_t TotalItems() const;

  std::string ToString(const Alphabet& alphabet) const;

  friend bool operator==(const ItemsetSequence& a, const ItemsetSequence& b) {
    return a.elements_ == b.elements_;
  }
  friend bool operator<(const ItemsetSequence& a, const ItemsetSequence& b) {
    return a.elements_ < b.elements_;
  }

 private:
  std::vector<Itemset> elements_;
};

// A database of itemset sequences over one alphabet.
class ItemsetDatabase {
 public:
  ItemsetDatabase() = default;

  Alphabet& alphabet() { return alphabet_; }
  const Alphabet& alphabet() const { return alphabet_; }

  void Add(ItemsetSequence seq) { sequences_.push_back(std::move(seq)); }

  size_t size() const { return sequences_.size(); }
  const ItemsetSequence& operator[](size_t i) const { return sequences_[i]; }
  ItemsetSequence* mutable_sequence(size_t i);
  const std::vector<ItemsetSequence>& sequences() const { return sequences_; }
  std::vector<ItemsetSequence>* mutable_sequences() { return &sequences_; }

 private:
  Alphabet alphabet_;
  std::vector<ItemsetSequence> sequences_;
};

}  // namespace seqhide

#endif  // SEQHIDE_ITEMSET_ITEMSET_SEQUENCE_H_
