#include "src/match/kernel.h"

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/subsequence.h"
#include "src/seq/signature.h"

namespace seqhide {
namespace {

const ConstraintSpec& Unconstrained() {
  static const ConstraintSpec kUnconstrained;
  return kUnconstrained;
}

}  // namespace

MatchKernel::MatchKernel(const std::vector<Sequence>& patterns,
                         const std::vector<ConstraintSpec>& constraints)
    : patterns_(&patterns),
      constraints_(&constraints),
      trie_(patterns, constraints) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  pattern_signatures_.reserve(patterns.size());
  for (const auto& p : patterns) {
    pattern_signatures_.push_back(SequenceSignature(p));
  }
}

const ConstraintSpec& MatchKernel::spec_for(size_t p) const {
  return constraints_->empty() ? Unconstrained() : (*constraints_)[p];
}

uint64_t MatchKernel::CountPattern(size_t p, SequenceView seq,
                                   MatchScratch* scratch) const {
  const Sequence& pattern = (*patterns_)[p];
  // No unconstrained embedding ⇒ no (constrained) matching of any kind —
  // skip the DP entirely.
  if (!ScreenEmbeds(pattern, seq)) return 0;
  return CountConstrainedMatchings(pattern, spec_for(p), seq, scratch);
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
  const bool trie_counted = trie_.num_covered() > 0 &&
                            trie_.CountAll(seq, scratch, counts->data());
  uint64_t total = 0;
  for (size_t p = 0; p < np; ++p) {
    const bool by_trie = trie_counted && trie_.Covers(p);
    if (!by_trie && Admits(p, row_signature)) {
      (*counts)[p] = CountPattern(p, seq, scratch);
    }
    total = SatAdd(total, (*counts)[p]);
  }
  return total;
}

bool MatchKernel::HasMatch(size_t p, SequenceView seq,
                           MatchScratch* scratch) const {
  const Sequence& pattern = (*patterns_)[p];
  const ConstraintSpec& spec = spec_for(p);
  if (!ScreenEmbeds(pattern, seq)) return false;
  return spec.IsUnconstrained() ||
         HasConstrainedMatch(pattern, spec, seq, scratch);
}

}  // namespace seqhide
