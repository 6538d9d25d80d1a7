#include "src/match/subsequence.h"

#include "src/common/logging.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

void DCheckPatternHasNoDelta(const Sequence& pattern) {
#ifndef NDEBUG
  for (size_t i = 0; i < pattern.size(); ++i) {
    SEQHIDE_DCHECK(IsRealSymbol(pattern[i]))
        << "patterns must not contain the marking symbol";
  }
#else
  (void)pattern;
#endif
}

}  // namespace

bool IsSubsequence(const Sequence& pattern, SequenceView seq) {
  DCheckPatternHasNoDelta(pattern);
  size_t k = 0;
  for (size_t j = 0; j < seq.size() && k < pattern.size(); ++j) {
    if (seq[j] == pattern[k]) ++k;
  }
  return k == pattern.size();
}

bool ScreenEmbeds(const Sequence& pattern, SequenceView seq) {
  SEQHIDE_COUNTER_INC("match.embed_screen.calls");
  return IsSubsequence(pattern, seq);
}

std::optional<std::vector<size_t>> FirstEmbedding(const Sequence& pattern,
                                                  SequenceView seq) {
  DCheckPatternHasNoDelta(pattern);
  std::vector<size_t> indices;
  indices.reserve(pattern.size());
  size_t k = 0;
  for (size_t j = 0; j < seq.size() && k < pattern.size(); ++j) {
    if (seq[j] == pattern[k]) {
      indices.push_back(j);
      ++k;
    }
  }
  if (k != pattern.size()) return std::nullopt;
  return indices;
}

size_t Support(const Sequence& pattern, const DatabaseView& db) {
  size_t count = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    if (IsSubsequence(pattern, db.row(t))) ++count;
  }
  return count;
}

size_t Support(const Sequence& pattern, const SequenceDatabase& db) {
  return Support(pattern, DatabaseView(db));
}

size_t SupportAny(const std::vector<Sequence>& patterns,
                  const DatabaseView& db) {
  size_t count = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    const SequenceView seq = db.row(t);
    for (const auto& pattern : patterns) {
      if (IsSubsequence(pattern, seq)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

size_t SupportAny(const std::vector<Sequence>& patterns,
                  const SequenceDatabase& db) {
  return SupportAny(patterns, DatabaseView(db));
}

}  // namespace seqhide
