// Differential properties for the itemset (§7.1), timed (§7.2) and class
// (§8) instances of the shared DPs (src/match/language.h) and hiding
// pipeline (src/hide/hide_language.h), against the enumeration oracles of
// src/testing/language_oracles.h. Instances stay small, so no count
// saturates. Per language:
//   * CountLanguageMatchings = the number of enumerated embeddings;
//   * LanguageDeltas = clear-and-recount (src/testing/delta_oracles.h) =
//     embeddings through each position, by enumeration, also on
//     max-window specs drawn at the edges of the anchored spans (window
//     1, window ≥ n, windows over bounded and min-gap-only gaps, timed
//     windows on tenths rounding boundaries);
//   * hiding leaves every support ≤ ψ (by enumeration) and changes
//     only positions that some embedding used before hiding.
// Case counts follow SEQHIDE_PROP_CASES; a failure names its case seed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/hide_language.h"
#include "src/itemset/itemset_match.h"
#include "src/repat/class_pattern.h"
#include "src/temporal/timed_match.h"
#include "src/testing/delta_oracles.h"
#include "src/testing/generators.h"
#include "src/testing/language_oracles.h"
#include "src/testing/prop.h"

namespace seqhide {
namespace proptest {
namespace {

constexpr size_t kCases = 300;

std::vector<std::vector<size_t>> Enumerate(const ItemsetSequence& pattern,
                                           const ConstraintSpec& spec,
                                           const ItemsetSequence& row) {
  return EnumerateItemsetMatchings(pattern, spec, row, 0);
}
std::vector<std::vector<size_t>> Enumerate(const Sequence& pattern,
                                           const TimeConstraintSpec& spec,
                                           const TimedSequence& row) {
  return EnumerateTimedMatchings(pattern, spec, row);
}
std::vector<std::vector<size_t>> Enumerate(const ClassPattern& pattern,
                                           const ConstraintSpec& spec,
                                           const Sequence& row) {
  return EnumerateClassMatchings(pattern, spec, row);
}

bool Changed(const ItemsetSequence& a, const ItemsetSequence& b, size_t i) {
  return !(a[i] == b[i]);
}
bool Changed(const TimedSequence& a, const TimedSequence& b, size_t i) {
  return a[i].symbol != b[i].symbol;
}
bool Changed(const Sequence& a, const Sequence& b, size_t i) {
  return a[i] != b[i];
}

// Embeddings through each position of `row`, by enumeration.
template <class L>
std::vector<uint64_t> OracleDeltas(const typename L::Pattern& pattern,
                                   const typename L::Spec& spec,
                                   const typename L::Row& row) {
  std::vector<uint64_t> deltas(row.size(), 0);
  for (const auto& embedding : Enumerate(pattern, spec, row)) {
    for (size_t i : embedding) ++deltas[i];
  }
  return deltas;
}

std::string Join(const std::vector<uint64_t>& v) {
  std::string out;
  for (uint64_t x : v) out += (out.empty() ? "" : ",") + std::to_string(x);
  return out;
}

// Count and δ of one (pattern, spec, row) against the oracles.
template <class L>
std::string CheckCountAndDeltas(const typename L::Pattern& pattern,
                                const typename L::Spec& spec,
                                const typename L::Row& row) {
  MatchScratch scratch;
  const L lang(pattern, spec, row);
  const uint64_t count = CountLanguageMatchings(lang, &scratch);
  const size_t embeddings = Enumerate(pattern, spec, row).size();
  if (count != embeddings) {
    return "count " + std::to_string(count) + " but " +
           std::to_string(embeddings) + " enumerated embeddings";
  }
  std::vector<uint64_t> fast;
  LanguageDeltas(lang, &scratch, &fast);
  const std::vector<uint64_t> recount = DeltasByRecount<L>(pattern, spec, row);
  const std::vector<uint64_t> oracle = OracleDeltas<L>(pattern, spec, row);
  if (fast != recount || fast != oracle) {
    return "delta [" + Join(fast) + "], clear-and-recount [" +
           Join(recount) + "], enumeration [" + Join(oracle) + "]";
  }
  return std::string();
}

// One HideLanguagePatterns run against the oracles.
template <class L>
std::string CheckHiding(std::vector<typename L::Row> rows,
                        const std::vector<typename L::Pattern>& patterns,
                        const std::vector<typename L::Spec>& specs,
                        size_t psi) {
  const std::vector<typename L::Row> before = rows;
  auto report = HideLanguagePatterns<L>(&rows, patterns, specs, psi);
  if (!report.ok()) return "hiding failed: " + report.status().ToString();
  for (size_t p = 0; p < patterns.size(); ++p) {
    size_t support = 0;
    for (const auto& row : rows) {
      if (!Enumerate(patterns[p], specs[p], row).empty()) ++support;
    }
    if (support > psi || support != report->supports_after[p]) {
      return "pattern " + std::to_string(p) + " support " +
             std::to_string(support) + ", reported " +
             std::to_string(report->supports_after[p]) + ", psi " +
             std::to_string(psi);
    }
  }
  for (size_t t = 0; t < rows.size(); ++t) {
    std::vector<uint64_t> involved(before[t].size(), 0);
    for (size_t p = 0; p < patterns.size(); ++p) {
      const auto d = OracleDeltas<L>(patterns[p], specs[p], before[t]);
      for (size_t i = 0; i < d.size(); ++i) involved[i] += d[i];
    }
    for (size_t i = 0; i < involved.size(); ++i) {
      if (Changed(before[t], rows[t], i) && involved[i] == 0) {
        return "row " + std::to_string(t) + " position " + std::to_string(i) +
               " was marked with delta 0";
      }
    }
  }
  return std::string();
}

// Runs `check(rng)` over the cases; the first failure names its seed.
template <class Check>
void ForEachCase(uint64_t base_seed, const Check& check) {
  const size_t cases = EffectiveCaseCount(kCases);
  for (size_t c = 0; c < cases; ++c) {
    const uint64_t seed = base_seed + c;
    Rng rng(seed);
    const std::string failure = check(&rng);
    ASSERT_TRUE(failure.empty()) << "case seed " << seed << ": " << failure;
  }
}

// --- properties -----------------------------------------------------------

TEST(LanguageDeltaProps, ItemsetCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1101, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(7);
    const ItemsetSequence row = GenItemsetSequence(rng, n, false);
    const size_t m = 1 + rng->NextBounded(3);
    const ItemsetSequence pattern = GenItemsetSequence(rng, m, true);
    const ConstraintSpec spec = GenConstraintSpec(rng, m, n);
    return CheckCountAndDeltas<ItemsetLanguage>(pattern, spec, row);
  });
}

TEST(LanguageDeltaProps, TimedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1102, [](Rng* rng) {
    const bool tenths = rng->NextBernoulli(0.5);
    const TimedSequence row =
        GenTimedSequence(rng, 1 + rng->NextBounded(8), 2, tenths, 0.1);
    const Sequence pattern = GenSequence(rng, 1 + rng->NextBounded(3), 2);
    return CheckCountAndDeltas<TimedLanguage>(
        pattern, GenTimeSpec(rng, row, tenths), row);
  });
}

TEST(LanguageDeltaProps, ClassCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1103, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(9);
    const Sequence row = GenSequence(rng, n, 4, /*delta_density=*/0.1);
    const size_t m = 1 + rng->NextBounded(3);
    const ClassPattern pattern = GenClassPattern(rng, m);
    const ConstraintSpec spec = GenConstraintSpec(rng, m, n);
    return CheckCountAndDeltas<ClassLanguage>(pattern, spec, row);
  });
}

TEST(LanguageDeltaProps, ItemsetWindowedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1107, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(8);
    const ItemsetSequence row = GenItemsetSequence(rng, n, false);
    const size_t m = 1 + rng->NextBounded(3);
    const ItemsetSequence pattern = GenItemsetSequence(rng, m, true);
    return CheckCountAndDeltas<ItemsetLanguage>(
        pattern, GenWindowedSpec(rng, m, n), row);
  });
}

TEST(LanguageDeltaProps, TimedWindowedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1108, [](Rng* rng) {
    const bool tenths = rng->NextBernoulli(0.75);
    const TimedSequence row =
        GenTimedSequence(rng, 1 + rng->NextBounded(9), 2, tenths, 0.1);
    const Sequence pattern = GenSequence(rng, 1 + rng->NextBounded(3), 2);
    return CheckCountAndDeltas<TimedLanguage>(
        pattern, GenTimedWindowSpec(rng, row, tenths), row);
  });
}

TEST(LanguageDeltaProps, ClassWindowedCountAndDeltaEqualEnumeration) {
  ForEachCase(0x5eed1109, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(10);
    const Sequence row = GenSequence(rng, n, 4, /*delta_density=*/0.1);
    const size_t m = 1 + rng->NextBounded(3);
    const ClassPattern pattern = GenClassPattern(rng, m);
    return CheckCountAndDeltas<ClassLanguage>(
        pattern, GenWindowedSpec(rng, m, n), row);
  });
}

TEST(LanguageDeltaProps, ItemsetHidingMeetsPsiAndMarksOnlyInvolvedPositions) {
  ForEachCase(0x5eed1104, [](Rng* rng) {
    std::vector<ItemsetSequence> rows;
    for (size_t t = 1 + rng->NextBounded(5); t > 0; --t) {
      rows.push_back(GenItemsetSequence(rng, 1 + rng->NextBounded(6), false));
    }
    std::vector<ItemsetSequence> patterns;
    std::vector<ConstraintSpec> specs;
    for (size_t p = 1 + rng->NextBounded(2); p > 0; --p) {
      const size_t m = 1 + rng->NextBounded(3);
      patterns.push_back(GenItemsetSequence(rng, m, true));
      specs.push_back(GenConstraintSpec(rng, m, 6));
    }
    return CheckHiding<ItemsetLanguage>(rows, patterns, specs,
                                        rng->NextBounded(3));
  });
}

TEST(LanguageDeltaProps, TimedHidingMeetsPsiAndMarksOnlyInvolvedPositions) {
  ForEachCase(0x5eed1105, [](Rng* rng) {
    const bool tenths = rng->NextBernoulli(0.5);
    std::vector<TimedSequence> rows;
    for (size_t t = 1 + rng->NextBounded(5); t > 0; --t) {
      rows.push_back(
          GenTimedSequence(rng, 1 + rng->NextBounded(8), 3, tenths, 0.1));
    }
    std::vector<Sequence> patterns;
    std::vector<TimeConstraintSpec> specs;
    for (size_t p = 1 + rng->NextBounded(2); p > 0; --p) {
      patterns.push_back(GenSequence(rng, 1 + rng->NextBounded(3), 3));
      specs.push_back(GenTimeSpec(rng, rows[0], tenths));
    }
    return CheckHiding<TimedLanguage>(rows, patterns, specs,
                                      rng->NextBounded(3));
  });
}

TEST(LanguageDeltaProps, ClassHidingMeetsPsiAndMarksOnlyInvolvedPositions) {
  ForEachCase(0x5eed1106, [](Rng* rng) {
    std::vector<Sequence> rows;
    for (size_t t = 1 + rng->NextBounded(5); t > 0; --t) {
      rows.push_back(GenSequence(rng, 1 + rng->NextBounded(9), 4, 0.1));
    }
    std::vector<ClassPattern> patterns;
    std::vector<ConstraintSpec> specs;
    for (size_t p = 1 + rng->NextBounded(2); p > 0; --p) {
      const size_t m = 1 + rng->NextBounded(3);
      patterns.push_back(GenClassPattern(rng, m));
      specs.push_back(GenConstraintSpec(rng, m, 9));
    }
    return CheckHiding<ClassLanguage>(rows, patterns, specs,
                                      rng->NextBounded(3));
  });
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
