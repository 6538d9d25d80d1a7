// Class patterns: a first step toward the paper's §8 future-work item
// "patterns as arbitrary regular expressions".
//
// The paper's pattern language is the RE subclass Σ* a Σ* b Σ* c Σ*
// (fixed symbols separated by arbitrary gaps). Class patterns generalize
// each fixed symbol to a *symbol class* — an explicit set of alternatives
// ("[X6Y3 X6Y4]": either cell) or the wildcard "." (any symbol) — i.e.
// the RE subclass Σ* C1 Σ* C2 Σ* ... Σ* where each Ci is a character
// class. The entire matching/δ/sanitization machinery carries over with
// the symbol-equality test replaced by class membership; occurrence
// constraints (§5 gaps and window) compose unchanged.
//
// Text syntax (ParseClassPattern):
//   "login [basket buy] . checkout"
//    ^literal ^class      ^wildcard

#ifndef SEQHIDE_REPAT_CLASS_PATTERN_H_
#define SEQHIDE_REPAT_CLASS_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/constraints/constraints.h"
#include "src/match/language.h"
#include "src/seq/database.h"
#include "src/seq/sequence.h"

namespace seqhide {

// One pattern position: a set of admissible symbols or the wildcard.
class SymbolClass {
 public:
  // Class of explicit alternatives (must be non-empty).
  static SymbolClass Of(std::vector<SymbolId> symbols);
  static SymbolClass Literal(SymbolId symbol) { return Of({symbol}); }
  // Matches every real symbol (never Δ).
  static SymbolClass Wildcard();

  bool is_wildcard() const { return wildcard_; }
  const std::vector<SymbolId>& symbols() const { return symbols_; }

  // Membership test; Δ matches no class, including the wildcard.
  bool Matches(SymbolId symbol) const;

  std::string ToString(const Alphabet& alphabet) const;

  friend bool operator==(const SymbolClass&, const SymbolClass&) = default;

 private:
  SymbolClass() = default;

  bool wildcard_ = false;
  std::vector<SymbolId> symbols_;  // sorted, deduplicated
};

class ClassPattern {
 public:
  ClassPattern() = default;
  explicit ClassPattern(std::vector<SymbolClass> classes)
      : classes_(std::move(classes)) {}

  size_t size() const { return classes_.size(); }
  bool empty() const { return classes_.empty(); }
  const SymbolClass& operator[](size_t i) const { return classes_[i]; }

  void Append(SymbolClass c) { classes_.push_back(std::move(c)); }

  // Lift of a plain sequence: every position becomes a literal class.
  static ClassPattern FromSequence(const Sequence& seq);

  std::string ToString(const Alphabet& alphabet) const;

  friend bool operator==(const ClassPattern&, const ClassPattern&) = default;

 private:
  std::vector<SymbolClass> classes_;
};

// Parses the whitespace syntax described above; names are interned.
Result<ClassPattern> ParseClassPattern(Alphabet* alphabet,
                                       const std::string& text);

// --- matching and hiding ------------------------------------------------
// Class membership is the element test of the shared DPs
// (src/match/language.h); hiding runs Algorithm 1's one pipeline, the one
// plain sequences run:
//
//   SanitizeRows<ClassLanguage>(db.mutable_sequences(), patterns, specs,
//                               opts)
//
// (src/hide/pipeline.h).

inline bool MatchesSymbol(const SymbolClass& element, SymbolId symbol) {
  return element.Matches(symbol);
}

using ClassLanguage = SymbolLanguage<ClassPattern>;

// Number of (constrained) embeddings; saturating (see match/count.h).
uint64_t CountClassMatchings(const ClassPattern& pattern,
                             const ConstraintSpec& spec, const Sequence& seq);

// Support of the class pattern over a database: rows where the pattern
// embeds (greedy screen) and has a matching under `spec`.
size_t ClassSupport(const ClassPattern& pattern, const ConstraintSpec& spec,
                    const SequenceDatabase& db);

// A sensitive class pattern is non-empty and `spec` fits its length.
Status ValidatePattern(const ClassPattern& pattern,
                       const ConstraintSpec& spec);

}  // namespace seqhide

#endif  // SEQHIDE_REPAT_CLASS_PATTERN_H_
