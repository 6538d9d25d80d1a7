#include "src/testing/language_oracles.h"

#include "src/common/logging.h"

namespace seqhide {
namespace {

// Matches are impossible against an empty pattern element; callers ensure
// pattern elements are non-empty (empty data elements simply match
// nothing except the empty set, which we exclude).
bool ElementMatches(const Itemset& pattern_element,
                    const Itemset& data_element) {
  if (pattern_element.empty()) return false;
  return pattern_element.IsSubsetOf(data_element);
}

void Enumerate(const ItemsetSequence& pattern, const ConstraintSpec& spec,
               const ItemsetSequence& seq, size_t cap,
               std::vector<size_t>* prefix,
               std::vector<std::vector<size_t>>* out) {
  if (cap != 0 && out->size() >= cap) return;
  size_t k = prefix->size();
  if (k == pattern.size()) {
    out->push_back(*prefix);
    return;
  }
  size_t start = prefix->empty() ? 0 : prefix->back() + 1;
  for (size_t j = start; j < seq.size(); ++j) {
    if (!ElementMatches(pattern[k], seq[j])) continue;
    if (!prefix->empty()) {
      size_t between = j - prefix->back() - 1;
      if (!spec.gap(k - 1).Allows(between)) continue;
      if (spec.max_window().has_value() &&
          j - prefix->front() + 1 > *spec.max_window()) {
        break;  // spans only grow with j
      }
    }
    prefix->push_back(j);
    Enumerate(pattern, spec, seq, cap, prefix, out);
    prefix->pop_back();
    if (cap != 0 && out->size() >= cap) return;
  }
}

// DFS over embeddings with time-gap/window pruning.
void Enumerate(const Sequence& pattern, const TimeConstraintSpec& spec,
               const TimedSequence& seq, size_t cap,
               std::vector<size_t>* prefix,
               std::vector<std::vector<size_t>>* out) {
  if (cap != 0 && out->size() >= cap) return;
  size_t k = prefix->size();
  if (k == pattern.size()) {
    out->push_back(*prefix);
    return;
  }
  size_t start = prefix->empty() ? 0 : prefix->back() + 1;
  for (size_t j = start; j < seq.size(); ++j) {
    if (seq[j].symbol != pattern[k]) continue;
    if (!prefix->empty()) {
      double gap = seq[j].time - seq[prefix->back()].time;
      if (gap < spec.min_gap_time || gap > spec.max_gap_time) continue;
      double span = seq[j].time - seq[prefix->front()].time;
      if (span > spec.max_window_time) break;  // times are non-decreasing
    }
    prefix->push_back(j);
    Enumerate(pattern, spec, seq, cap, prefix, out);
    prefix->pop_back();
    if (cap != 0 && out->size() >= cap) return;
  }
}

void EnumerateRec(const ClassPattern& pattern, const ConstraintSpec& spec,
                  const Sequence& seq, size_t cap,
                  std::vector<size_t>* prefix,
                  std::vector<std::vector<size_t>>* out) {
  if (cap != 0 && out->size() >= cap) return;
  size_t k = prefix->size();
  if (k == pattern.size()) {
    out->push_back(*prefix);
    return;
  }
  size_t start = prefix->empty() ? 0 : prefix->back() + 1;
  for (size_t j = start; j < seq.size(); ++j) {
    if (!pattern[k].Matches(seq[j])) continue;
    if (!prefix->empty()) {
      size_t between = j - prefix->back() - 1;
      if (!spec.gap(k - 1).Allows(between)) continue;
      if (spec.max_window().has_value() &&
          j - prefix->front() + 1 > *spec.max_window()) {
        break;
      }
    }
    prefix->push_back(j);
    EnumerateRec(pattern, spec, seq, cap, prefix, out);
    prefix->pop_back();
    if (cap != 0 && out->size() >= cap) return;
  }
}

}  // namespace

std::vector<std::vector<size_t>> EnumerateItemsetMatchings(
    const ItemsetSequence& pattern, const ItemsetSequence& seq, size_t cap) {
  return EnumerateItemsetMatchings(pattern, ConstraintSpec(), seq, cap);
}

std::vector<std::vector<size_t>> EnumerateItemsetMatchings(
    const ItemsetSequence& pattern, const ConstraintSpec& spec,
    const ItemsetSequence& seq, size_t cap) {
  SEQHIDE_CHECK(!pattern.empty());
  std::vector<std::vector<size_t>> out;
  std::vector<size_t> prefix;
  Enumerate(pattern, spec, seq, cap, &prefix, &out);
  return out;
}

std::vector<std::vector<size_t>> EnumerateTimedMatchings(
    const Sequence& pattern, const TimeConstraintSpec& spec,
    const TimedSequence& seq, size_t cap) {
  SEQHIDE_CHECK(!pattern.empty());
  std::vector<std::vector<size_t>> out;
  std::vector<size_t> prefix;
  Enumerate(pattern, spec, seq, cap, &prefix, &out);
  return out;
}

std::vector<std::vector<size_t>> EnumerateClassMatchings(
    const ClassPattern& pattern, const ConstraintSpec& spec,
    const Sequence& seq, size_t cap) {
  SEQHIDE_CHECK(!pattern.empty());
  std::vector<std::vector<size_t>> out;
  std::vector<size_t> prefix;
  EnumerateRec(pattern, spec, seq, cap, &prefix, &out);
  return out;
}

}  // namespace seqhide
