// Differential properties for the local round loop (src/hide/local.h),
// which keeps each pattern's δ and refills only the patterns whose
// matchings the last mark touched, against the loop that refills every
// pattern every round (src/testing/round_oracle.h). Both run on copies of
// one row with the same δ and mark callbacks and must return the same
// marked_positions, marks_introduced and exhausted, and release the same
// row, for:
//   * sequences under GenInstance's constraint mix (min/max gaps and
//     windows), with the Heuristic and the Random strategy (equal seeds);
//   * sequences under max-window specs at the edges of the anchored spans;
//   * itemset, timed and class rows (SanitizeLanguageRow);
//   * long rows whose counts saturate at 2⁶⁴−1;
//   * a max_table_bytes budget that refuses some pattern's table.
// Case counts follow SEQHIDE_PROP_CASES; a failure names its case seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/hide_language.h"
#include "src/hide/local.h"
#include "src/itemset/itemset_match.h"
#include "src/match/count.h"
#include "src/match/scratch.h"
#include "src/repat/class_pattern.h"
#include "src/temporal/timed_match.h"
#include "src/testing/generators.h"
#include "src/testing/prop.h"
#include "src/testing/round_oracle.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

constexpr size_t kCases = 200;

std::string Join(const std::vector<size_t>& v) {
  std::string out;
  for (size_t x : v) out += (out.empty() ? "" : ",") + std::to_string(x);
  return out;
}

bool SameRow(const Sequence& a, const Sequence& b) { return a == b; }
bool SameRow(const ItemsetSequence& a, const ItemsetSequence& b) {
  return a == b;
}
bool SameRow(const TimedSequence& a, const TimedSequence& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].symbol != b[i].symbol || a[i].time != b[i].time) return false;
  }
  return true;
}

// Empty when both loops agree; else what differs.
template <class Row>
std::string Diff(const LocalSanitizeResult& got, const Row& got_row,
                 const LocalSanitizeResult& want, const Row& want_row) {
  if (got.marked_positions != want.marked_positions) {
    return "marked [" + Join(got.marked_positions) + "], refilling all [" +
           Join(want.marked_positions) + "]";
  }
  if (got.marks_introduced != want.marks_introduced) {
    return "marks " + std::to_string(got.marks_introduced) +
           ", refilling all " + std::to_string(want.marks_introduced);
  }
  if (got.exhausted != want.exhausted) {
    return std::string("exhausted ") + (got.exhausted ? "true" : "false") +
           ", refilling all " + (want.exhausted ? "true" : "false");
  }
  if (!SameRow(got_row, want_row)) return "released rows differ";
  return std::string();
}

// Both loops on copies of `row`, Heuristic and then Random with the same
// seed on both sides; `max_table_bytes` is the scratch budget (0 = none).
std::string CheckSequenceRow(const Sequence& row,
                             const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             uint64_t seed, size_t max_table_bytes,
                             bool* exhausted = nullptr) {
  for (LocalStrategy strategy :
       {LocalStrategy::kHeuristic, LocalStrategy::kRandom}) {
    Sequence got_row = row, want_row = row;
    Rng got_rng(seed), want_rng(seed);
    MatchScratch got_scratch, want_scratch;
    got_scratch.max_table_bytes = max_table_bytes;
    want_scratch.max_table_bytes = max_table_bytes;
    const LocalSanitizeResult got =
        SanitizeSequence(&got_row, patterns, constraints, strategy, &got_rng,
                         &got_scratch);
    const LocalSanitizeResult want = SanitizeSequenceRefillingAll(
        &want_row, patterns, constraints, strategy, &want_rng, &want_scratch);
    const std::string diff = Diff(got, got_row, want, want_row);
    if (!diff.empty()) {
      return std::string(strategy == LocalStrategy::kHeuristic ? "heuristic"
                                                               : "random") +
             ": " + diff;
    }
    if (exhausted != nullptr) *exhausted = *exhausted || got.exhausted;
  }
  return std::string();
}

// SanitizeLanguageRow against the refill-all loop on copies of `row`.
template <class L>
std::string CheckLanguageRow(const typename L::Row& row,
                             const std::vector<typename L::Pattern>& patterns,
                             const std::vector<typename L::Spec>& specs) {
  typename L::Row got_row = row, want_row = row;
  MatchScratch got_scratch, want_scratch;
  const LocalSanitizeResult got =
      SanitizeLanguageRow<L>(&got_row, patterns, specs, &got_scratch);
  const LocalSanitizeResult want = SanitizeLanguageRowRefillingAll<L>(
      &want_row, patterns, specs, &want_scratch);
  return Diff(got, got_row, want, want_row);
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

TEST(MarkRoundsProps, SequenceRowsEqualRefillingAll) {
  PropConfig config;
  config.name = "mark-rounds/sequence-rows";
  config.seed = 0x5eed1301;
  config.cases = kCases;
  config.gen.max_patterns = 4;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      const std::string diff =
          CheckSequenceRow(inst.db[t], inst.patterns, inst.constraints,
                           inst.options.seed + t, /*max_table_bytes=*/0);
      if (!diff.empty()) return "row T" + std::to_string(t) + " " + diff;
    }
    return std::string();
  }));
}

TEST(MarkRoundsProps, WindowedSequenceRowsEqualRefillingAll) {
  ForEachCase(0x5eed1302, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(12);
    const Sequence row = GenSequence(rng, n, 3, /*delta_density=*/0.1,
                                     /*repeat_bias=*/0.3);
    std::vector<Sequence> patterns;
    std::vector<ConstraintSpec> specs;
    for (size_t p = 1 + rng->NextBounded(3); p > 0; --p) {
      patterns.push_back(GenSequence(rng, 1 + rng->NextBounded(3), 3));
      const size_t m = patterns.back().size();
      specs.push_back(rng->NextBernoulli(0.7) ? GenWindowedSpec(rng, m, n)
                                              : GenConstraintSpec(rng, m, n));
    }
    return CheckSequenceRow(row, patterns, specs, rng->NextU64(), 0);
  });
}

TEST(MarkRoundsProps, ItemsetRowsEqualRefillingAll) {
  ForEachCase(0x5eed1303, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(8);
    const ItemsetSequence row = GenItemsetSequence(rng, n, false);
    std::vector<ItemsetSequence> patterns;
    std::vector<ConstraintSpec> specs;
    for (size_t p = 1 + rng->NextBounded(3); p > 0; --p) {
      const size_t m = 1 + rng->NextBounded(3);
      patterns.push_back(GenItemsetSequence(rng, m, true));
      specs.push_back(rng->NextBernoulli(0.5) ? GenWindowedSpec(rng, m, n)
                                              : GenConstraintSpec(rng, m, n));
    }
    return CheckLanguageRow<ItemsetLanguage>(row, patterns, specs);
  });
}

TEST(MarkRoundsProps, TimedRowsEqualRefillingAll) {
  ForEachCase(0x5eed1304, [](Rng* rng) {
    const bool tenths = rng->NextBernoulli(0.5);
    const TimedSequence row =
        GenTimedSequence(rng, 1 + rng->NextBounded(9), 3, tenths, 0.1);
    std::vector<Sequence> patterns;
    std::vector<TimeConstraintSpec> specs;
    for (size_t p = 1 + rng->NextBounded(3); p > 0; --p) {
      patterns.push_back(GenSequence(rng, 1 + rng->NextBounded(3), 3));
      specs.push_back(rng->NextBernoulli(0.5)
                          ? GenTimedWindowSpec(rng, row, tenths)
                          : GenTimeSpec(rng, row, tenths));
    }
    return CheckLanguageRow<TimedLanguage>(row, patterns, specs);
  });
}

TEST(MarkRoundsProps, ClassRowsEqualRefillingAll) {
  ForEachCase(0x5eed1305, [](Rng* rng) {
    const size_t n = 1 + rng->NextBounded(10);
    const Sequence row = GenSequence(rng, n, 4, /*delta_density=*/0.1);
    std::vector<ClassPattern> patterns;
    std::vector<ConstraintSpec> specs;
    for (size_t p = 1 + rng->NextBounded(3); p > 0; --p) {
      const size_t m = 1 + rng->NextBounded(3);
      patterns.push_back(GenClassPattern(rng, m));
      specs.push_back(rng->NextBernoulli(0.5) ? GenWindowedSpec(rng, m, n)
                                              : GenConstraintSpec(rng, m, n));
    }
    return CheckLanguageRow<ClassLanguage>(row, patterns, specs);
  });
}

// Long rows (the generators' long-row mode) with patterns of 14-20
// symbols over 2 symbols, so counts and δ saturate at 2⁶⁴−1 and the
// argmax meets saturated ties. At least one case must saturate.
TEST(MarkRoundsProps, SaturatingLongRowsEqualRefillingAll) {
  PropConfig config;
  config.name = "mark-rounds/saturating-long-rows";
  config.seed = 0x5eed1306;
  config.cases = 6;
  config.gen = LongRowOptions();
  config.gen.max_alphabet = 2;
  config.gen.min_pattern_length = 14;
  config.gen.max_pattern_length = 20;
  config.gen.embed_probability = 1.0;
  size_t saturated = 0;
  EXPECT_PROP_OK(CheckProperty(config, [&](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (const Sequence& pattern : inst.patterns) {
        if (CountMatchings(pattern, inst.db[t]) == kCountSaturated) {
          ++saturated;
        }
      }
      const std::string diff =
          CheckSequenceRow(inst.db[t], inst.patterns, inst.constraints,
                           inst.options.seed + t, /*max_table_bytes=*/0);
      if (!diff.empty()) return "row T" + std::to_string(t) + " " + diff;
    }
    return std::string();
  }));
  EXPECT_GT(saturated, 0u);
}

// A table budget between 8 bytes and the largest (m+1)×(n+1) table of the
// row's patterns, so some runs stop on a refusal and some finish; both
// loops must stop in the same round with the same marks.
TEST(MarkRoundsProps, TableBudgetRefusalEqualsRefillingAll) {
  PropConfig config;
  config.name = "mark-rounds/table-budget";
  config.seed = 0x5eed1307;
  config.cases = kCases;
  config.gen.max_patterns = 4;
  size_t refused = 0, finished = 0;
  EXPECT_PROP_OK(CheckProperty(config, [&](const PropInstance& inst) {
    Rng rng(inst.options.seed);
    for (size_t t = 0; t < inst.db.size(); ++t) {
      size_t largest = 1;
      for (const Sequence& pattern : inst.patterns) {
        largest = std::max(largest,
                           (pattern.size() + 1) * (inst.db[t].size() + 1));
      }
      const size_t budget = 8 * (1 + rng.NextBounded(largest));
      bool exhausted = false;
      const std::string diff =
          CheckSequenceRow(inst.db[t], inst.patterns, inst.constraints,
                           inst.options.seed + t, budget, &exhausted);
      if (!diff.empty()) {
        return "row T" + std::to_string(t) + " budget " +
               std::to_string(budget) + " " + diff;
      }
      ++(exhausted ? refused : finished);
    }
    return std::string();
  }));
  EXPECT_GT(refused, 0u);
  EXPECT_GT(finished, 0u);
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
