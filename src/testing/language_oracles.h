// Enumeration oracles for the itemset (§7.1), timed (§7.2) and class
// (§8) pattern languages: every embedding, by plain recursion over the
// row, with the language's element test and constraint predicates written
// out directly. They share no code with the DPs of src/match/language.h
// that they check. Exponential worst case; `cap` (0 = none) stops after
// that many embeddings.

#ifndef SEQHIDE_TESTING_LANGUAGE_ORACLES_H_
#define SEQHIDE_TESTING_LANGUAGE_ORACLES_H_

#include <cstddef>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/itemset/itemset_sequence.h"
#include "src/repat/class_pattern.h"
#include "src/seq/sequence.h"
#include "src/temporal/timed_sequence.h"

namespace seqhide {

// Position tuples of the embeddings of `pattern` in `seq` (⊆ tests),
// unconstrained or satisfying `spec`.
std::vector<std::vector<size_t>> EnumerateItemsetMatchings(
    const ItemsetSequence& pattern, const ItemsetSequence& seq,
    size_t cap = 0);
std::vector<std::vector<size_t>> EnumerateItemsetMatchings(
    const ItemsetSequence& pattern, const ConstraintSpec& spec,
    const ItemsetSequence& seq, size_t cap);

// Embeddings whose consecutive events satisfy the time-gap bounds and
// whose duration satisfies the window.
std::vector<std::vector<size_t>> EnumerateTimedMatchings(
    const Sequence& pattern, const TimeConstraintSpec& spec,
    const TimedSequence& seq, size_t cap = 0);

// Embeddings of a class pattern satisfying `spec`.
std::vector<std::vector<size_t>> EnumerateClassMatchings(
    const ClassPattern& pattern, const ConstraintSpec& spec,
    const Sequence& seq, size_t cap = 0);

}  // namespace seqhide

#endif  // SEQHIDE_TESTING_LANGUAGE_ORACLES_H_
