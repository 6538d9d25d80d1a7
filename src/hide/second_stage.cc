#include "src/hide/second_stage.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/match/constrained_count.h"
#include "src/mine/prefix_span.h"
#include "src/obs/macros.h"
#include "src/seq/view.h"

namespace seqhide {
namespace {

// The symbols kLeastHarm tries, in order: neutral symbols (in no pattern,
// so they can never complete an occurrence) before pattern symbols (safe
// only when the rest of the pattern is absent from the row), each by
// descending frequency in `db`; the most frequent neutral symbol first.
std::vector<SymbolId> LeastHarmOrder(const SequenceDatabase& db,
                                     const std::vector<Sequence>& patterns) {
  const size_t alphabet_size = db.alphabet().size();
  std::vector<bool> in_pattern(alphabet_size, false);
  for (const Sequence& p : patterns) {
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] >= 0 && static_cast<size_t>(p[i]) < alphabet_size) {
        in_pattern[static_cast<size_t>(p[i])] = true;
      }
    }
  }
  std::vector<size_t> frequency(alphabet_size, 0);
  for (const Sequence& seq : db.sequences()) {
    for (size_t i = 0; i < seq.size(); ++i) {
      if (IsRealSymbol(seq[i])) ++frequency[static_cast<size_t>(seq[i])];
    }
  }
  std::vector<SymbolId> order;
  for (size_t s = 0; s < alphabet_size; ++s) {
    order.push_back(static_cast<SymbolId>(s));
  }
  std::stable_sort(order.begin(), order.end(), [&](SymbolId a, SymbolId b) {
    const size_t x = static_cast<size_t>(a);
    const size_t y = static_cast<size_t>(b);
    if (in_pattern[x] != in_pattern[y]) return !in_pattern[x];
    return frequency[x] > frequency[y];
  });
  return order;
}

}  // namespace

Result<ReleaseReport> ReleaseMarks(
    SequenceDatabase* db, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints,
    const std::vector<size_t>& max_supports, const ReleaseOptions& options) {
  SEQHIDE_CHECK(db != nullptr);
  if (patterns.empty()) {
    return Status::InvalidArgument("no sensitive patterns given");
  }
  if (!constraints.empty() && constraints.size() != patterns.size()) {
    return Status::InvalidArgument(
        "constraints list must be empty or have one entry per pattern");
  }
  if (max_supports.size() != patterns.size()) {
    return Status::InvalidArgument(
        "max_supports must have one entry per pattern");
  }

  SEQHIDE_TRACE_SPAN("release_marks");
  auto spec = [&](size_t p) {
    return constraints.empty() ? ConstraintSpec() : constraints[p];
  };
  // One scratch across every candidate trial and the support pass; the
  // per-candidate count is allocation-free once warmed up.
  MatchScratch scratch;
  Rng rng(options.seed);
  std::vector<SymbolId> order;
  if (options.policy == ReleasePolicy::kLeastHarm) {
    order = LeastHarmOrder(*db, patterns);
  } else if (options.policy == ReleasePolicy::kRandomSafe) {
    for (size_t s = 0; s < db->alphabet().size(); ++s) {
      order.push_back(static_cast<SymbolId>(s));
    }
  }

  ReleaseReport report;
  SequenceDatabase released;
  released.alphabet() = db->alphabet();
  std::vector<SymbolId> candidates;
  for (size_t t = 0; t < db->size(); ++t) {
    Sequence& row = *db->mutable_sequence(t);
    if (row.MarkCount() == 0) {
      released.Add(std::move(row));
      continue;
    }
    std::vector<SymbolId> symbols = row.symbols();
    size_t stuck = 0;
    for (size_t pos = 0; pos < symbols.size(); ++pos) {
      if (symbols[pos] != kDeltaSymbol) continue;
      candidates = order;
      if (options.policy == ReleasePolicy::kRandomSafe) {
        rng.Shuffle(&candidates);
      }
      // Commit the first candidate after which the row holds no
      // occurrence of any pattern.
      bool replaced = false;
      for (SymbolId candidate : candidates) {
        SEQHIDE_COUNTER_INC("second_stage.candidates_tried");
        symbols[pos] = candidate;
        if (CountConstrainedMatchingsTotal(patterns, constraints, symbols,
                                           &scratch) == 0) {
          replaced = true;
          break;
        }
      }
      if (replaced) {
        ++report.replaced;
      } else {
        symbols[pos] = kDeltaSymbol;
        ++stuck;
      }
    }
    Sequence filled(std::move(symbols));
    if (stuck > 0) {
      // Delete the stuck Δs only if the row then holds no pattern it
      // lacked; a replacement commits only in a row holding none, so
      // `filled` holds what the marked row held.
      Sequence deleted = filled.WithoutMarks();
      bool gains = false;
      for (size_t p = 0; p < patterns.size() && !gains; ++p) {
        gains = HasConstrainedMatch(patterns[p], spec(p), deleted, &scratch) &&
                !HasConstrainedMatch(patterns[p], spec(p), filled, &scratch);
      }
      (gains ? report.kept : report.deleted) += stuck;
      if (!gains) filled = std::move(deleted);
    }
    if (!filled.empty()) released.Add(std::move(filled));  // else: all Δ
  }
  *db = std::move(released);
  SEQHIDE_COUNTER_ADD("second_stage.replaced", report.replaced);
  SEQHIDE_COUNTER_ADD("second_stage.deleted", report.deleted);
  SEQHIDE_COUNTER_ADD("second_stage.kept", report.kept);

  const DatabaseView view(*db);
  for (size_t p = 0; p < patterns.size(); ++p) {
    report.supports.push_back(
        ConstrainedSupport(patterns[p], spec(p), view, &scratch));
    if (report.supports[p] > max_supports[p]) {
      return Status::Internal(
          "stage 2 re-generated a sensitive occurrence (pattern " +
          std::to_string(p) + " support " + std::to_string(report.supports[p]) +
          " > " + std::to_string(max_supports[p]) + ")");
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
