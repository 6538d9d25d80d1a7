#include "src/match/kernel.h"

#include <cstdlib>

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/subsequence.h"
#include "src/obs/macros.h"
#include "src/seq/signature.h"

namespace seqhide {
namespace {

const ConstraintSpec& Unconstrained() {
  static const ConstraintSpec kUnconstrained;
  return kUnconstrained;
}

}  // namespace

std::string ToString(KernelEngine e) {
  switch (e) {
    case KernelEngine::kAuto: return "auto";
    case KernelEngine::kScalar: return "scalar";
    case KernelEngine::kBitset: return "bitset";
    case KernelEngine::kTrie: return "trie";
  }
  return "unknown";
}

bool ParseKernelEngine(const std::string& text, KernelEngine* out) {
  if (text == "auto") *out = KernelEngine::kAuto;
  else if (text == "scalar") *out = KernelEngine::kScalar;
  else if (text == "bitset") *out = KernelEngine::kBitset;
  else if (text == "trie") *out = KernelEngine::kTrie;
  else return false;
  return true;
}

KernelEngine ResolveKernelEngine(
    KernelEngine requested, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints) {
  if (requested != KernelEngine::kAuto) return requested;
  if (const char* env = std::getenv("SEQHIDE_KERNEL")) {
    KernelEngine pinned = KernelEngine::kAuto;
    if (ParseKernelEngine(env, &pinned) && pinned != KernelEngine::kAuto) {
      return pinned;
    }
  }
  size_t unconstrained = 0;
  bool all_fit_bitset = !patterns.empty();
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (constraints.empty() || constraints[p].IsUnconstrained()) {
      ++unconstrained;
    }
    if (patterns[p].empty() || patterns[p].size() > kBitsetMaxPatternLength) {
      all_fit_bitset = false;
    }
  }
  // Two or more unconstrained patterns: the one-pass trie amortizes the
  // row scan across them. Otherwise the Shift-And screen + blocked DP is
  // the win if the patterns fit 64 bits; otherwise nothing beats scalar.
  if (unconstrained >= 2) return KernelEngine::kTrie;
  if (all_fit_bitset) return KernelEngine::kBitset;
  return KernelEngine::kScalar;
}

MatchKernel::MatchKernel(const std::vector<Sequence>& patterns,
                         const std::vector<ConstraintSpec>& constraints,
                         KernelEngine requested)
    : patterns_(&patterns),
      constraints_(&constraints),
      requested_(requested),
      engine_(ResolveKernelEngine(requested, patterns, constraints)) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  pattern_signatures_.reserve(patterns.size());
  for (const auto& p : patterns) {
    pattern_signatures_.push_back(SequenceSignature(p));
  }
  if (engine_ == KernelEngine::kBitset || engine_ == KernelEngine::kTrie) {
    masks_.reserve(patterns.size());
    for (const auto& p : patterns) masks_.emplace_back(p);
  }
  if (engine_ == KernelEngine::kTrie) {
    trie_.emplace(patterns, constraints);
  }
}

const ConstraintSpec& MatchKernel::spec_for(size_t p) const {
  return constraints_->empty() ? Unconstrained() : (*constraints_)[p];
}

uint64_t MatchKernel::CountPattern(size_t p, SequenceView seq,
                                   MatchScratch* scratch) const {
  const Sequence& pattern = (*patterns_)[p];
  const ConstraintSpec& spec = spec_for(p);
  if (engine_ == KernelEngine::kScalar || !masks_[p].usable()) {
    // Scalar engine, or this pattern is too long for the 64-bit state.
    return CountConstrainedMatchings(pattern, spec, seq, scratch);
  }
  // Shift-And screen: no unconstrained embedding ⇒ no (constrained)
  // matching of any kind — skip the DP entirely.
  if (!HasSubsequenceBitParallel(masks_[p], seq)) return 0;
  if (spec.IsUnconstrained()) {
    return CountMatchingsBlocked(pattern, masks_[p], seq, scratch);
  }
  return CountConstrainedMatchings(pattern, spec, seq, scratch);
}

uint64_t MatchKernel::CountRow(SequenceView seq, MatchScratch* scratch,
                               std::vector<uint64_t>* counts) const {
  return CountRow(seq, ~uint64_t{0}, scratch, counts);
}

uint64_t MatchKernel::CountRow(SequenceView seq, uint64_t row_signature,
                               MatchScratch* scratch,
                               std::vector<uint64_t>* counts) const {
  const size_t np = patterns_->size();
  counts->assign(np, 0);
  // One trie pass counts every covered pattern, admitted or not: a
  // pattern the row does not admit has no embedding, so it counts 0.
  const bool trie_counted = engine_ == KernelEngine::kTrie &&
                            trie_->num_covered() > 0 &&
                            trie_->CountAll(seq, scratch, counts->data());
  uint64_t total = 0;
  for (size_t p = 0; p < np; ++p) {
    const bool by_trie = trie_counted && trie_->Covers(p);
    if (!by_trie && Admits(p, row_signature)) {
      (*counts)[p] = CountPattern(p, seq, scratch);
    }
    total = SatAdd(total, (*counts)[p]);
  }
  return total;
}

uint64_t MatchKernel::CountTriePatterns(SequenceView seq,
                                        MatchScratch* scratch,
                                        std::vector<uint64_t>* counts) const {
  SEQHIDE_DCHECK(engine_ == KernelEngine::kTrie);
  const size_t np = patterns_->size();
  counts->assign(np, 0);
  if (!trie_->CountAll(seq, scratch, counts->data())) {
    for (size_t p = 0; p < np; ++p) {
      if (trie_->Covers(p)) (*counts)[p] = CountPattern(p, seq, scratch);
    }
  }
  uint64_t total = 0;
  for (size_t p = 0; p < np; ++p) {
    if (trie_->Covers(p)) total = SatAdd(total, (*counts)[p]);
  }
  return total;
}

bool MatchKernel::HasMatch(size_t p, SequenceView seq,
                           MatchScratch* scratch) const {
  const Sequence& pattern = (*patterns_)[p];
  const ConstraintSpec& spec = spec_for(p);
  if (engine_ == KernelEngine::kScalar) {
    return HasConstrainedMatch(pattern, spec, seq, scratch);
  }
  const bool fits = masks_[p].usable();
  if (spec.IsUnconstrained()) {
    // Existence needs no DP at all: Shift-And when the pattern fits one
    // word, the greedy subsequence scan otherwise. Both early-exit.
    return fits ? HasSubsequenceBitParallel(masks_[p], seq)
                : IsSubsequence(pattern, seq);
  }
  if (fits && !HasSubsequenceBitParallel(masks_[p], seq)) return false;
  return HasConstrainedMatch(pattern, spec, seq, scratch);
}

}  // namespace seqhide
