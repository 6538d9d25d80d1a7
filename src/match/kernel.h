// Kernel dispatch for the stage-1 counting / support hot paths.
//
// Three engines compute the same per-pattern matching-set sizes and
// existence answers (bit-identical results — only the instruction stream
// differs):
//
//   scalar — the per-pattern Lemma 2 / Lemma 4 DPs exactly as before
//            (count.h / constrained_count.h). Always applicable; the
//            reference the other two are differentially tested against.
//   bitset — Shift-And existence screen + cache-blocked counting DP for
//            patterns with m <= 64 (bitset_match.h). Constrained patterns
//            are screened (no embedding ⇒ constrained count 0) and then
//            fall back to the scalar constrained DP; patterns with m > 64
//            go scalar entirely.
//   trie   — the shared pattern-prefix trie (pattern_trie.h): every
//            unconstrained pattern counted in ONE pass per row instead of
//            |S| passes. Constrained patterns fall back to scalar.
//
// Engine choice: SanitizeOptions::kernel / --kernel=auto|scalar|bitset|
// trie. `auto` (the default) consults the SEQHIDE_KERNEL environment
// variable, then picks by shape: >= 2 unconstrained patterns → trie;
// otherwise every pattern fits 64 bits → bitset; otherwise scalar. The
// resolved engine is recorded in SanitizeReport::kernel_engine, hence in
// --stats-json and the telemetry ledger.
//
// A MatchKernel is built once per run from the pattern set and then
// shared read-only across worker threads; all mutable state lives in the
// caller's per-thread MatchScratch. It borrows `patterns`/`constraints`
// — the caller keeps them alive for the kernel's lifetime.

#ifndef SEQHIDE_MATCH_KERNEL_H_
#define SEQHIDE_MATCH_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/bitset_match.h"
#include "src/match/pattern_trie.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

enum class KernelEngine {
  kAuto = 0,
  kScalar,
  kBitset,
  kTrie,
};

std::string ToString(KernelEngine e);
// Accepts "auto", "scalar", "bitset", "trie". False on anything else.
bool ParseKernelEngine(const std::string& text, KernelEngine* out);

// The engine a kAuto request resolves to for this pattern set: the
// SEQHIDE_KERNEL environment variable if set and valid (a non-auto pin
// wins over the heuristic), else the shape heuristic above. A non-auto
// `requested` is returned unchanged — explicit pins beat the environment.
KernelEngine ResolveKernelEngine(
    KernelEngine requested, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints);

class MatchKernel {
 public:
  // `constraints` must be empty or parallel to `patterns`; both must
  // outlive the kernel.
  MatchKernel(const std::vector<Sequence>& patterns,
              const std::vector<ConstraintSpec>& constraints,
              KernelEngine requested);

  KernelEngine requested() const { return requested_; }
  // Never kAuto.
  KernelEngine engine() const { return engine_; }
  size_t num_patterns() const { return patterns_->size(); }

  // |M_{S_p}^T| under pattern p's constraint spec. Bit-identical across
  // engines.
  uint64_t CountPattern(size_t p, SequenceView seq,
                        MatchScratch* scratch) const;

  // Per-pattern counts for every pattern in one call (the trie engine's
  // one-pass path); counts is resized to num_patterns(). Returns the
  // saturating total over patterns.
  uint64_t CountRow(SequenceView seq, MatchScratch* scratch,
                    std::vector<uint64_t>* counts) const;

  // Screened CountRow: `row_signature` is SequenceSignature(seq) (or any
  // superset of its bits). A pattern outside the trie that the signature
  // does not admit counts 0 with no work; the counts are identical to the
  // unscreened call's.
  uint64_t CountRow(SequenceView seq, uint64_t row_signature,
                    MatchScratch* scratch,
                    std::vector<uint64_t>* counts) const;

  // False iff a row with this signature lacks a symbol of pattern p, and
  // so can hold no matching of it (src/seq/signature.h). True is only a
  // "maybe": distinct symbols may share a bit.
  bool Admits(size_t p, uint64_t row_signature) const {
    return (pattern_signatures_[p] & ~row_signature) == 0;
  }

  // Does pattern p have a (constrained) matching in seq? Early-exits via
  // Shift-And / greedy subsequence scan where the engine allows.
  bool HasMatch(size_t p, SequenceView seq, MatchScratch* scratch) const;

  // True iff the trie engine is active and covers pattern p (used by the
  // indexed pipelines to split patterns between the one-pass union scan
  // and the per-pattern candidate loops).
  bool TrieCovers(size_t p) const {
    return trie_.has_value() && trie_->Covers(p);
  }
  // Like CountRow but only writes counts for trie-covered patterns and
  // returns their saturating subtotal. REQUIRES the trie engine.
  uint64_t CountTriePatterns(SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* counts) const;

 private:
  const ConstraintSpec& spec_for(size_t p) const;

  const std::vector<Sequence>* patterns_;
  const std::vector<ConstraintSpec>* constraints_;
  KernelEngine requested_;
  KernelEngine engine_;
  // Per-pattern Shift-And masks (bitset + trie engines; unusable entries
  // mean m > 64 → scalar fallback for that pattern).
  std::vector<SymbolMasks> masks_;
  std::optional<PatternTrie> trie_;
  // SequenceSignature of each pattern (Admits).
  std::vector<uint64_t> pattern_signatures_;
};

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_KERNEL_H_
