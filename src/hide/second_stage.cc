#include "src/hide/second_stage.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/mine/prefix_span.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// Symbols that appear in the pattern set — the only candidates that could
// re-create an occurrence, and also the only ones whose new matchings
// matter for the "least harm" score.
std::vector<bool> PatternSymbolMask(const std::vector<Sequence>& patterns,
                                    size_t alphabet_size) {
  std::vector<bool> mask(alphabet_size, false);
  for (const auto& p : patterns) {
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] >= 0 && static_cast<size_t>(p[i]) < alphabet_size) {
        mask[static_cast<size_t>(p[i])] = true;
      }
    }
  }
  return mask;
}

// Per pattern, whether `seq` holds at least one (constrained) occurrence.
std::vector<bool> RowSupports(const Sequence& seq,
                              const std::vector<Sequence>& patterns,
                              const std::vector<ConstraintSpec>& constraints,
                              MatchScratch* scratch) {
  std::vector<bool> supports(patterns.size(), false);
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec spec =
        constraints.empty() ? ConstraintSpec() : constraints[p];
    supports[p] = HasConstrainedMatch(patterns[p], spec, seq, scratch);
  }
  return supports;
}

// Global symbol frequencies over the database (used for tie-breaking so
// the released data resembles the original distribution).
std::vector<size_t> SymbolFrequencies(const SequenceDatabase& db) {
  std::vector<size_t> freq(db.alphabet().size(), 0);
  for (const auto& seq : db.sequences()) {
    for (size_t i = 0; i < seq.size(); ++i) {
      if (IsRealSymbol(seq[i])) ++freq[static_cast<size_t>(seq[i])];
    }
  }
  return freq;
}

}  // namespace

size_t DeleteMarks(SequenceDatabase* db) {
  SEQHIDE_CHECK(db != nullptr);
  size_t deleted = 0;
  SequenceDatabase cleaned;
  cleaned.alphabet() = db->alphabet();
  for (const auto& seq : db->sequences()) {
    size_t marks = seq.MarkCount();
    deleted += marks;
    if (marks == seq.size()) continue;  // fully marked: drop the row
    cleaned.Add(marks == 0 ? seq : seq.WithoutMarks());
  }
  *db = std::move(cleaned);
  return deleted;
}

Result<ReplaceReport> ReplaceMarks(
    SequenceDatabase* db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints,
    const ReplaceOptions& options) {
  SEQHIDE_CHECK(db != nullptr);
  if (patterns.empty()) {
    return Status::InvalidArgument("no sensitive patterns given");
  }
  if (!constraints.empty() && constraints.size() != patterns.size()) {
    return Status::InvalidArgument(
        "constraints list must be empty or have one entry per pattern");
  }

  SEQHIDE_TRACE_SPAN("replace_marks");
  Rng rng(options.seed);
  ReplaceReport report;
  // One scratch across every candidate trial and the post-condition
  // scans; the per-candidate count is allocation-free once warmed up.
  MatchScratch scratch;
  std::vector<size_t> supports_before(patterns.size(), 0);
  // Rows whose stuck Δs stay: deleting them would create an occurrence.
  std::vector<bool> keep_stuck(db->size(), false);
  const size_t alphabet_size = db->alphabet().size();
  const std::vector<bool> in_pattern =
      PatternSymbolMask(patterns, alphabet_size);
  const std::vector<size_t> frequency = SymbolFrequencies(*db);

  // The globally most frequent symbol that occurs in no pattern is always
  // safe (it can never complete a pattern occurrence); precompute it as
  // the preferred filler.
  SymbolId best_neutral = kDeltaSymbol;
  for (size_t s = 0; s < alphabet_size; ++s) {
    if (in_pattern[s]) continue;
    if (best_neutral == kDeltaSymbol ||
        frequency[s] > frequency[static_cast<size_t>(best_neutral)]) {
      best_neutral = static_cast<SymbolId>(s);
    }
  }

  for (size_t t = 0; t < db->size(); ++t) {
    Sequence* seq = db->mutable_sequence(t);
    const std::vector<bool> supported_before =
        RowSupports(*seq, patterns, constraints, &scratch);
    for (size_t p = 0; p < patterns.size(); ++p) {
      if (supported_before[p]) ++supports_before[p];
    }
    size_t stuck = 0;
    for (size_t pos = 0; pos < seq->size(); ++pos) {
      if (!seq->IsMarked(pos)) continue;

      // Candidate symbols, in strategy order.
      std::vector<SymbolId> candidates;
      if (options.strategy == ReplacementStrategy::kLeastHarm) {
        if (best_neutral != kDeltaSymbol) candidates.push_back(best_neutral);
        // Neutral symbols by descending frequency, then pattern symbols
        // (a pattern symbol can be safe when the rest of the pattern is
        // absent from the sequence).
        std::vector<SymbolId> rest;
        for (size_t s = 0; s < alphabet_size; ++s) {
          SymbolId sym = static_cast<SymbolId>(s);
          if (sym != best_neutral) rest.push_back(sym);
        }
        std::stable_sort(rest.begin(), rest.end(),
                         [&](SymbolId a, SymbolId b) {
                           if (in_pattern[static_cast<size_t>(a)] !=
                               in_pattern[static_cast<size_t>(b)]) {
                             return !in_pattern[static_cast<size_t>(a)];
                           }
                           return frequency[static_cast<size_t>(a)] >
                                  frequency[static_cast<size_t>(b)];
                         });
        candidates.insert(candidates.end(), rest.begin(), rest.end());
      } else {
        for (size_t s = 0; s < alphabet_size; ++s) {
          candidates.push_back(static_cast<SymbolId>(s));
        }
        rng.Shuffle(&candidates);
      }

      // Commit the first candidate that keeps every pattern at zero
      // occurrences in this sequence.
      bool replaced = false;
      for (SymbolId candidate : candidates) {
        SEQHIDE_COUNTER_INC("second_stage.candidates_tried");
        Sequence trial = *seq;
        std::vector<SymbolId> symbols = trial.symbols();
        symbols[pos] = candidate;
        trial = Sequence(std::move(symbols));
        if (CountConstrainedMatchingsTotal(patterns, constraints, trial,
                                           &scratch) == 0) {
          *seq = std::move(trial);
          replaced = true;
          break;
        }
        // Neutral symbols are always safe, so for kLeastHarm the first
        // candidate normally succeeds; pattern symbols may fail.
      }
      if (replaced) {
        ++report.replaced;
      } else if (options.delete_when_stuck) {
        // Leave Δ for now; a deletion pass at the end keeps positions
        // stable during this loop.
        ++stuck;
      } else {
        ++report.kept_marked;
      }
    }
    if (stuck == 0) continue;
    // Deleting shortens the gaps and windows around the Δs, which can
    // complete an occurrence of a max-gap or window pattern. Delete the
    // row's stuck Δs only if it then supports no pattern it did not
    // support before; otherwise they stay marked.
    const std::vector<bool> supported_after =
        RowSupports(seq->WithoutMarks(), patterns, constraints, &scratch);
    for (size_t p = 0; p < patterns.size(); ++p) {
      if (supported_after[p] && !supported_before[p]) keep_stuck[t] = true;
    }
    (keep_stuck[t] ? report.kept_marked : report.deleted) += stuck;
  }

  if (report.deleted > 0) {
    // DeleteMarks, except in the rows whose stuck Δs stay.
    SequenceDatabase cleaned;
    cleaned.alphabet() = db->alphabet();
    for (size_t t = 0; t < db->size(); ++t) {
      const Sequence& seq = (*db)[t];
      const size_t marks = seq.MarkCount();
      if (marks == seq.size()) continue;  // fully marked: drop the row
      cleaned.Add(marks == 0 || keep_stuck[t] ? seq : seq.WithoutMarks());
    }
    *db = std::move(cleaned);
  }

  SEQHIDE_COUNTER_ADD("second_stage.replaced", report.replaced);
  SEQHIDE_COUNTER_ADD("second_stage.deleted", report.deleted);

  // Post-condition: nothing was re-generated, so no pattern's support
  // rose. Rows the marking stage left supporting (ψ > 0) keep their
  // occurrences; they are not a failure.
  std::vector<size_t> supports_after(patterns.size(), 0);
  for (const Sequence& seq : db->sequences()) {
    const std::vector<bool> supported =
        RowSupports(seq, patterns, constraints, &scratch);
    for (size_t p = 0; p < patterns.size(); ++p) {
      if (supported[p]) ++supports_after[p];
    }
  }
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (supports_after[p] > supports_before[p]) {
      return Status::Internal(
          "replacement re-generated a sensitive occurrence (pattern " +
          std::to_string(p) + " support " + std::to_string(supports_before[p]) +
          " -> " + std::to_string(supports_after[p]) + ")");
    }
  }
  return report;
}

Result<size_t> CountFakeFrequentPatterns(const SequenceDatabase& original,
                                         const SequenceDatabase& released,
                                         size_t sigma, size_t max_length) {
  MinerOptions opts;
  opts.min_support = sigma;
  opts.max_length = max_length;
  SEQHIDE_ASSIGN_OR_RETURN(FrequentPatternSet frequent_original,
                           MineFrequentSequences(original, opts));
  SEQHIDE_ASSIGN_OR_RETURN(FrequentPatternSet frequent_released,
                           MineFrequentSequences(released, opts));
  return frequent_released.CountMissingFrom(frequent_original);
}

}  // namespace seqhide
