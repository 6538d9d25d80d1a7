#include "src/mine/inverted_index.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/match/subsequence.h"
#include "src/obs/macros.h"

namespace seqhide {

InvertedIndex::InvertedIndex(const SequenceDatabase& db)
    : InvertedIndex(DatabaseView(db)) {}

InvertedIndex::InvertedIndex(const DatabaseView& db) {
  // Sized from the data, not the alphabet: databases built from raw ids
  // (tests, programmatic construction) may hold symbols the alphabet has
  // not interned.
  postings_.resize(db.alphabet().size());
  std::vector<SymbolId> buffer;
  for (size_t t = 0; t < db.size(); ++t) {
    const SequenceView seq = db.row(t);
    // Count occurrences per symbol: sort + run-length encode (cheaper
    // than a hash/tree map for the short sequences databases hold).
    buffer.clear();
    for (size_t i = 0; i < seq.size(); ++i) {
      if (IsRealSymbol(seq[i])) buffer.push_back(seq[i]);
    }
    std::sort(buffer.begin(), buffer.end());
    for (size_t i = 0; i < buffer.size();) {
      size_t j = i;
      while (j < buffer.size() && buffer[j] == buffer[i]) ++j;
      SymbolId symbol = buffer[i];
      if (static_cast<size_t>(symbol) >= postings_.size()) {
        postings_.resize(static_cast<size_t>(symbol) + 1);
      }
      postings_[static_cast<size_t>(symbol)].push_back(
          Posting{static_cast<uint32_t>(t), static_cast<uint32_t>(j - i)});
      ++total_postings_;
      i = j;
    }
  }
  // Construction order already yields sequence-id-sorted lists.
}

std::vector<size_t> InvertedIndex::CandidateSupporters(
    const Sequence& pattern) const {
  // Multiplicity requirement per distinct pattern symbol (patterns are
  // short; a sorted flat vector beats a map).
  std::vector<std::pair<SymbolId, uint32_t>> required;
  {
    std::vector<SymbolId> symbols;
    for (size_t i = 0; i < pattern.size(); ++i) {
      SEQHIDE_CHECK(IsRealSymbol(pattern[i]))
          << "patterns must not contain the marking symbol";
      symbols.push_back(pattern[i]);
    }
    std::sort(symbols.begin(), symbols.end());
    for (size_t i = 0; i < symbols.size();) {
      size_t j = i;
      while (j < symbols.size() && symbols[j] == symbols[i]) ++j;
      required.emplace_back(symbols[i], static_cast<uint32_t>(j - i));
      i = j;
    }
  }
  if (required.empty()) return {};

  // Start from the rarest symbol's postings and intersect.
  const PostingList* seed = nullptr;
  for (const auto& [symbol, multiplicity] : required) {
    (void)multiplicity;
    if (static_cast<size_t>(symbol) >= postings_.size()) return {};
    const auto& list = postings_[static_cast<size_t>(symbol)];
    if (seed == nullptr || list.size() < seed->size()) seed = &list;
  }
  SEQHIDE_CHECK(seed != nullptr);

  std::vector<size_t> candidates;
  for (const Posting& posting : *seed) {
    bool ok = true;
    for (const auto& [symbol, multiplicity] : required) {
      const auto& list = postings_[static_cast<size_t>(symbol)];
      auto it = std::lower_bound(
          list.begin(), list.end(), posting.sequence_id,
          [](const Posting& p, uint32_t id) { return p.sequence_id < id; });
      if (it == list.end() || it->sequence_id != posting.sequence_id ||
          it->count < multiplicity) {
        ok = false;
        break;
      }
    }
    if (ok) candidates.push_back(posting.sequence_id);
  }
  SEQHIDE_COUNTER_INC("index.candidate_queries");
  SEQHIDE_COUNTER_ADD("index.candidates_returned", candidates.size());
  return candidates;
}

std::vector<size_t> InvertedIndex::CandidateSupportersAny(
    const std::vector<Sequence>& patterns) const {
  std::vector<size_t> all;
  for (const auto& p : patterns) {
    std::vector<size_t> c = CandidateSupporters(p);
    all.insert(all.end(), c.begin(), c.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

size_t InvertedIndex::Support(const Sequence& pattern,
                              const SequenceDatabase& db) const {
  size_t support = 0;
  for (size_t t : CandidateSupporters(pattern)) {
    if (IsSubsequence(pattern, db[t])) ++support;
  }
  return support;
}

}  // namespace seqhide
