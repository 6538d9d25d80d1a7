// Differential properties for δ(T[i]) of sequence patterns. The
// production forward×backward method (LanguageDeltas in
// match/language.h, anchored under a max-window), and
// the test oracles of src/testing/delta_oracles.h — the paper's Theorem 2
// deletion method and the mark-and-recount method — must all equal the
// definitional enumeration count of embeddings involving each position —
// the deletion method only where it is defined (unconstrained matching).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/scratch.h"
#include "src/testing/delta_oracles.h"
#include "src/testing/generators.h"
#include "src/testing/oracles.h"
#include "tests/prop/prop_gtest.h"
#include "tests/test_util.h"

namespace seqhide {
namespace proptest {
namespace {

using testutil::SequenceDeltas;
using testutil::SequenceTable;

ConstraintSpec SpecFor(const PropInstance& inst, size_t p) {
  return inst.constraints.empty() ? ConstraintSpec() : inst.constraints[p];
}

std::string DiffDeltas(const std::vector<uint64_t>& got,
                       const std::vector<uint64_t>& want,
                       const std::string& got_name,
                       const std::string& want_name, size_t row,
                       size_t pattern) {
  if (got.size() != want.size()) {
    return got_name + " size " + std::to_string(got.size()) + " != " +
           want_name + " size " + std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return got_name + "[" + std::to_string(i) + "]=" +
             std::to_string(got[i]) + " but " + want_name + "=" +
             std::to_string(want[i]) + " (row T" + std::to_string(row) +
             ", pattern S" + std::to_string(pattern) + ")";
    }
  }
  return std::string();
}

TEST(PositionDeltaProps, ProductionEqualsEnumeration) {
  PropConfig config;
  config.name = "position-delta/production-equals-enumeration";
  config.seed = 0x5eed0201;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        ConstraintSpec spec = SpecFor(inst, p);
        auto fast = SequenceDeltas(inst.patterns[p], spec, inst.db[t]);
        auto oracle = OraclePositionDeltas(inst.patterns[p], spec, inst.db[t]);
        std::string diff =
            DiffDeltas(fast, oracle, "production", "enumeration", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

TEST(PositionDeltaProps, MarkingMethodEqualsEnumeration) {
  PropConfig config;
  config.name = "position-delta/marking-equals-enumeration";
  config.seed = 0x5eed0202;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        ConstraintSpec spec = SpecFor(inst, p);
        auto marking =
            PositionDeltasByMarking(inst.patterns[p], spec, inst.db[t]);
        auto oracle = OraclePositionDeltas(inst.patterns[p], spec, inst.db[t]);
        std::string diff =
            DiffDeltas(marking, oracle, "marking", "enumeration", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

// Theorem 2's deletion construction is only valid unconstrained; compare
// it against the other two methods there.
TEST(PositionDeltaProps, DeletionMethodAgreesUnconstrained) {
  PropConfig config;
  config.name = "position-delta/deletion-agrees-unconstrained";
  config.seed = 0x5eed0203;
  config.gen.constrained_probability = 0.0;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto deletion =
            PositionDeltasByDeletion(inst.patterns[p], inst.db[t]);
        auto oracle = OraclePositionDeltas(inst.patterns[p], ConstraintSpec(),
                                           inst.db[t]);
        std::string diff =
            DiffDeltas(deletion, oracle, "deletion", "enumeration", t, p);
        if (!diff.empty()) return diff;
        auto fast =
            SequenceDeltas(inst.patterns[p], ConstraintSpec(), inst.db[t]);
        diff = DiffDeltas(deletion, fast, "deletion", "production", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

TEST(PositionDeltaProps, TotalAccumulatesAndScratchMatches) {
  PropConfig config;
  config.name = "position-delta/total-and-scratch";
  config.seed = 0x5eed0204;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    MatchScratch scratch;
    std::vector<uint64_t> reused;
    for (size_t t = 0; t < inst.db.size(); ++t) {
      auto total = PositionDeltasTotal(inst.patterns, inst.constraints,
                                       inst.db[t]);
      std::vector<uint64_t> sum(inst.db[t].size(), 0);
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto one = OraclePositionDeltas(inst.patterns[p], SpecFor(inst, p),
                                        inst.db[t]);
        for (size_t i = 0; i < sum.size(); ++i) sum[i] = SatAdd(sum[i], one[i]);
      }
      std::string diff =
          DiffDeltas(total, sum, "total", "oracle-sum", t, inst.patterns.size());
      if (!diff.empty()) return diff;

      PositionDeltasTotalInto(inst.patterns, inst.constraints, inst.db[t],
                              &scratch, &reused);
      diff = DiffDeltas(reused, total, "scratch-total", "total", t,
                        inst.patterns.size());
      if (!diff.empty()) return diff;
    }
    return std::string();
  }));
}

// Max-window specs at the edges of the anchored spans (GenWindowedSpec:
// window 1, window ≥ n so every span is clipped at the row's end, windows
// over bounded and min-gap-only gaps): the production count and δ must
// equal both enumeration and mark-and-recount. Windows shorter than the
// pattern are raised to its length, the least that validates.
TEST(PositionDeltaProps, WindowedEqualsMarkingAndEnumeration) {
  const size_t cases = EffectiveCaseCount(300);
  for (size_t c = 0; c < cases; ++c) {
    const uint64_t seed = 0x5eed0207 + c;
    Rng rng(seed);
    const size_t n = 1 + rng.NextBounded(10);
    const Sequence row = GenSequence(&rng, n, 3, /*delta_density=*/0.1,
                                     /*repeat_bias=*/0.3);
    const Sequence pattern = GenSequence(&rng, 1 + rng.NextBounded(3), 3);
    ConstraintSpec spec = GenWindowedSpec(&rng, pattern.size(), n);
    if (*spec.max_window() < pattern.size()) spec.SetMaxWindow(pattern.size());
    const std::string where = "case seed " + std::to_string(seed) + ", T=" +
                              row.DebugString() + " S=" +
                              pattern.DebugString() + " " + spec.ToString();
    EXPECT_EQ(CountConstrainedMatchings(pattern, spec, row),
              OracleConstrainedCount(pattern, spec, row))
        << where;
    const auto fast = SequenceDeltas(pattern, spec, row);
    const auto oracle = OraclePositionDeltas(pattern, spec, row);
    ASSERT_EQ(DiffDeltas(fast, oracle, "production", "enumeration", 0, 0), "")
        << where;
    ASSERT_EQ(DiffDeltas(fast, PositionDeltasByMarking(pattern, spec, row),
                         "production", "marking", 0, 0),
              "")
        << where;
  }
}

// The arrow kinds the long-row properties cover, for a pattern of
// `arrows` arrows: unconstrained, min-gap-only ->[g..] for g in {0, 1, 5},
// bounded ->[1..3], and a per-arrow mix of ->[g..] and ->[0..2].
std::vector<ConstraintSpec> LongRowSpecs(size_t arrows) {
  std::vector<ConstraintSpec> specs = {ConstraintSpec()};
  for (size_t g : {0, 1, 5}) {
    specs.push_back(ConstraintSpec::UniformGap(g, GapBound::kNoMax));
    std::vector<GapBound> mixed;
    for (size_t a = 0; a < arrows; ++a) {
      mixed.push_back(a % 2 == 0 ? GapBound{g, GapBound::kNoMax}
                                 : GapBound{0, 2});
    }
    specs.push_back(ConstraintSpec::PerArrow(std::move(mixed)));
  }
  specs.push_back(ConstraintSpec::UniformGap(1, 3));
  return specs;
}

// Rows of 128-512 symbols (the generators' long-row mode), where the
// enumeration oracle is too slow: the production δ must equal
// mark-and-recount, which only runs the counting kernels. Alphabets of 2-4
// symbols keep matching dense; patterns of at most 6 symbols keep every
// count below 2^64 (C(512,6) < 2^64), so the recount's subtraction is
// exact.
PropConfig LongRowConfig(const std::string& name, uint64_t seed) {
  PropConfig config;
  config.name = name;
  config.seed = seed;
  config.cases = 8;
  config.gen = LongRowOptions();
  return config;
}

TEST(PositionDeltaProps, LongRowsEqualMarking) {
  EXPECT_PROP_OK(CheckProperty(
      LongRowConfig("position-delta/long-rows-equal-marking", 0x5eed0205),
      [](const PropInstance& inst) {
        for (size_t t = 0; t < inst.db.size(); ++t) {
          for (size_t p = 0; p < inst.patterns.size(); ++p) {
            const Sequence& pattern = inst.patterns[p];
            for (const ConstraintSpec& spec :
                 LongRowSpecs(pattern.size() - 1)) {
              auto fast = SequenceDeltas(pattern, spec, inst.db[t]);
              auto marking = PositionDeltasByMarking(pattern, spec, inst.db[t]);
              std::string diff = DiffDeltas(fast, marking, "production",
                                            "marking " + spec.ToString(), t, p);
              if (!diff.empty()) return diff;
            }
          }
        }
        return std::string();
      }));
}

// Mark-and-recount counts ->[g..] arrows with the gap table's running
// prefix sum, so pin that table independently on long rows: a max gap of
// |T| admits every gap ->[g..] does, and takes the per-cell windowed sum.
TEST(PositionDeltaProps, LongRowsGapTableEqualsWindowedSum) {
  EXPECT_PROP_OK(CheckProperty(
      LongRowConfig("position-delta/long-rows-gap-table", 0x5eed0206),
      [](const PropInstance& inst) {
        for (size_t t = 0; t < inst.db.size(); ++t) {
          const size_t n = inst.db[t].size();
          for (size_t p = 0; p < inst.patterns.size(); ++p) {
            const Sequence& pattern = inst.patterns[p];
            for (size_t g : {0, 1, 5}) {
              std::vector<GapBound> open, capped;
              for (size_t a = 0; a + 1 < pattern.size(); ++a) {
                open.push_back(GapBound{g, GapBound::kNoMax});
                capped.push_back(GapBound{g, n});
              }
              const auto got = SequenceTable(
                  pattern, ConstraintSpec::PerArrow(open), inst.db[t]);
              const auto want = SequenceTable(
                  pattern, ConstraintSpec::PerArrow(capped), inst.db[t]);
              if (got != want) {
                return "gap table ->[" + std::to_string(g) +
                       "..] differs from ->[" + std::to_string(g) + ".." +
                       std::to_string(n) + "] (row T" + std::to_string(t) +
                       ", pattern S" + std::to_string(p) + ")";
              }
            }
          }
        }
        return std::string();
      }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
