// Matching and hiding for itemset sequences (paper §7.1).
//
// "The main difference lies in how to find the matches: it is not an
// equality test but a set inclusion test — if S[j] ⊆ T[i] we got a
// match." ItemsetLanguage is that test plugged into the shared DPs of
// src/match/language.h; gap and window constraints act on the matched
// positions unchanged. Hiding runs Algorithm 1's one pipeline, the one
// plain sequences run:
//
//   SanitizeRows<ItemsetLanguage>(db.mutable_sequences(), patterns, specs,
//                                 opts)
//
// (src/hide/pipeline.h), marking through the MarkPosition overload below;
// its report counts removed items as marks.

#ifndef SEQHIDE_ITEMSET_ITEMSET_MATCH_H_
#define SEQHIDE_ITEMSET_ITEMSET_MATCH_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/constraints/constraints.h"
#include "src/itemset/itemset_sequence.h"
#include "src/match/language.h"

namespace seqhide {

// The §7.1 language: pattern element k matches row element j iff
// S[k] ⊆ T[j] (an empty element matches nothing).
class ItemsetLanguage : public IndexSpans {
 public:
  using Pattern = ItemsetSequence;
  using Spec = ConstraintSpec;
  using Row = ItemsetSequence;

  ItemsetLanguage(const ItemsetSequence& pattern, const ConstraintSpec& spec,
                  const ItemsetSequence& row)
      : IndexSpans(spec, row.size()), pattern_(pattern), row_(row) {}

  size_t m() const { return pattern_.size(); }
  size_t n() const { return row_.size(); }
  bool Match(size_t k, size_t j) const {
    return !pattern_[k].empty() && pattern_[k].IsSubsetOf(row_[j]);
  }

 private:
  const ItemsetSequence& pattern_;
  const ItemsetSequence& row_;
};

// U ⊑ V with element-wise set inclusion.
bool IsItemsetSubsequence(const ItemsetSequence& pattern,
                          const ItemsetSequence& seq);

// sup_D(S) over an itemset database.
size_t ItemsetSupport(const ItemsetSequence& pattern,
                      const ItemsetDatabase& db);

// |M_S^T| under `spec` (unconstrained by default); saturating.
uint64_t CountItemsetMatchings(const ItemsetSequence& pattern,
                               const ConstraintSpec& spec,
                               const ItemsetSequence& seq);
inline uint64_t CountItemsetMatchings(const ItemsetSequence& pattern,
                                      const ItemsetSequence& seq) {
  return CountItemsetMatchings(pattern, ConstraintSpec(), seq);
}

// A sensitive itemset pattern is non-empty, has no empty element, and
// `spec` fits its length.
Status ValidatePattern(const ItemsetSequence& pattern,
                       const ConstraintSpec& spec);

// §7.1's two-level heuristic, second level: inside the element the round
// loop chose, remove the item whose removal lowers the row's total
// matching count most (the first such item on ties), until the element
// takes part in no matching. Returns the number of items removed. When no
// single removal lowers a saturated count, the element is cleared whole,
// so every call makes progress.
template <class CountTotal>
size_t MarkPosition(ItemsetSequence* row, size_t pos,
                    const CountTotal& count_total) {
  size_t removed = 0;
  ItemsetSequence trial;
  uint64_t current = count_total(*row);
  do {
    SymbolId best_item = 0;
    uint64_t best_reduction = 0;
    for (SymbolId item : (*row)[pos].items()) {
      trial = *row;
      trial.mutable_element(pos)->Remove(item);
      const uint64_t reduction = current - count_total(trial);
      if (reduction > best_reduction) {
        best_reduction = reduction;
        best_item = item;
      }
    }
    if (best_reduction == 0) {
      removed += (*row)[pos].size();
      row->Mark(pos);
      break;
    }
    row->mutable_element(pos)->Remove(best_item);
    ++removed;
    current = count_total(*row);
    trial = *row;
    trial.Mark(pos);
  } while (current > count_total(trial));
  return removed;
}

}  // namespace seqhide

#endif  // SEQHIDE_ITEMSET_ITEMSET_MATCH_H_
