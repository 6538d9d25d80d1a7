#include "src/repat/class_pattern.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/match/scratch.h"

namespace seqhide {

SymbolClass SymbolClass::Of(std::vector<SymbolId> symbols) {
  SEQHIDE_CHECK(!symbols.empty()) << "a symbol class needs alternatives";
  std::sort(symbols.begin(), symbols.end());
  symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());
  for (SymbolId s : symbols) {
    SEQHIDE_CHECK(IsRealSymbol(s)) << "classes hold real symbols only";
  }
  SymbolClass out;
  out.symbols_ = std::move(symbols);
  return out;
}

SymbolClass SymbolClass::Wildcard() {
  SymbolClass out;
  out.wildcard_ = true;
  return out;
}

bool SymbolClass::Matches(SymbolId symbol) const {
  if (!IsRealSymbol(symbol)) return false;  // Δ matches nothing
  if (wildcard_) return true;
  return std::binary_search(symbols_.begin(), symbols_.end(), symbol);
}

std::string SymbolClass::ToString(const Alphabet& alphabet) const {
  if (wildcard_) return ".";
  if (symbols_.size() == 1) return alphabet.Name(symbols_[0]);
  std::string out = "[";
  for (size_t i = 0; i < symbols_.size(); ++i) {
    if (i > 0) out += " ";
    out += alphabet.Name(symbols_[i]);
  }
  out += "]";
  return out;
}

ClassPattern ClassPattern::FromSequence(const Sequence& seq) {
  ClassPattern out;
  for (size_t i = 0; i < seq.size(); ++i) {
    out.Append(SymbolClass::Literal(seq[i]));
  }
  return out;
}

std::string ClassPattern::ToString(const Alphabet& alphabet) const {
  std::string out;
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (i > 0) out += " ";
    out += classes_[i].ToString(alphabet);
  }
  return out;
}

Result<ClassPattern> ParseClassPattern(Alphabet* alphabet,
                                       const std::string& text) {
  ClassPattern pattern;
  std::vector<std::string> tokens = SplitWhitespace(text);
  size_t i = 0;
  while (i < tokens.size()) {
    const std::string& tok = tokens[i];
    if (tok == ".") {
      pattern.Append(SymbolClass::Wildcard());
      ++i;
    } else if (StartsWith(tok, "[")) {
      // Collect tokens until one ends with ']'.
      std::vector<SymbolId> symbols;
      std::string current = tok.substr(1);
      bool closed = false;
      for (;;) {
        bool last = !current.empty() && current.back() == ']';
        if (last) current.pop_back();
        if (current == Alphabet::DeltaToken()) {
          return Status::InvalidArgument(
              "the marking token cannot appear in a class: " + text);
        }
        if (!current.empty()) symbols.push_back(alphabet->Intern(current));
        if (last) {
          closed = true;
          break;
        }
        ++i;
        if (i >= tokens.size()) break;
        current = tokens[i];
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated class in: " + text);
      }
      if (symbols.empty()) {
        return Status::InvalidArgument("empty class in: " + text);
      }
      pattern.Append(SymbolClass::Of(std::move(symbols)));
      ++i;
    } else if (tok.find(']') != std::string::npos) {
      return Status::InvalidArgument("stray ']' in: " + text);
    } else if (tok == Alphabet::DeltaToken()) {
      return Status::InvalidArgument(
          "the marking token cannot appear in a pattern: " + text);
    } else {
      pattern.Append(SymbolClass::Literal(alphabet->Intern(tok)));
      ++i;
    }
  }
  if (pattern.empty()) {
    return Status::InvalidArgument("empty pattern: " + text);
  }
  return pattern;
}

uint64_t CountClassMatchings(const ClassPattern& pattern,
                             const ConstraintSpec& spec, const Sequence& seq) {
  MatchScratch scratch;
  return CountLanguageMatchings(ClassLanguage(pattern, spec, seq), &scratch);
}

size_t ClassSupport(const ClassPattern& pattern, const ConstraintSpec& spec,
                    const SequenceDatabase& db) {
  MatchScratch scratch;
  return LanguageSupport<ClassLanguage>(pattern, spec, db.sequences(),
                                        &scratch);
}

Status ValidatePattern(const ClassPattern& pattern,
                       const ConstraintSpec& spec) {
  if (pattern.empty()) {
    return Status::InvalidArgument("class pattern must be non-empty");
  }
  return spec.Validate(pattern.size());
}

}  // namespace seqhide
