// Differential properties for constrained counting (Lemmas 4-5,
// match/constrained_count.h over language.h's tables): the gap-table DP,
// the windowed evaluation, and the support predicate must agree with
// enumerate-and-filter under the definitional predicate
// ConstraintSpec::SatisfiedBy — and degenerate to the unconstrained
// kernels when the spec is trivial.

#include <gtest/gtest.h>

#include <string>

#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/language.h"
#include "src/match/scratch.h"
#include "src/testing/delta_oracles.h"
#include "src/testing/oracles.h"
#include "tests/prop/prop_gtest.h"
#include "tests/test_util.h"

namespace seqhide {
namespace proptest {
namespace {

ConstraintSpec SpecFor(const PropInstance& inst, size_t p) {
  return inst.constraints.empty() ? ConstraintSpec() : inst.constraints[p];
}

TEST(ConstrainedCountProps, DPEqualsEnumerateAndFilter) {
  PropConfig config;
  config.name = "constrained-count/dp-equals-filter";
  config.seed = 0x5eed0301;
  // Force constraints on most patterns; unconstrained degeneration has
  // its own property below.
  config.gen.constrained_probability = 0.9;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        ConstraintSpec spec = SpecFor(inst, p);
        uint64_t fast =
            CountConstrainedMatchings(inst.patterns[p], spec, inst.db[t]);
        uint64_t oracle =
            OracleConstrainedCount(inst.patterns[p], spec, inst.db[t]);
        if (fast != oracle) {
          return "CountConstrainedMatchings=" + std::to_string(fast) +
                 " but filtered enumeration=" + std::to_string(oracle) +
                 " (row T" + std::to_string(t) + ", pattern S" +
                 std::to_string(p) + ", spec " + spec.ToString() + ")";
        }
      }
    }
    return std::string();
  }));
}

TEST(ConstrainedCountProps, ScratchOverloadIsBitIdentical) {
  PropConfig config;
  config.name = "constrained-count/scratch-equals-allocating";
  config.seed = 0x5eed0302;
  config.gen.constrained_probability = 0.9;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    MatchScratch scratch;
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        ConstraintSpec spec = SpecFor(inst, p);
        uint64_t plain =
            CountConstrainedMatchings(inst.patterns[p], spec, inst.db[t]);
        uint64_t reused = CountConstrainedMatchings(inst.patterns[p], spec,
                                                    inst.db[t], &scratch);
        if (plain != reused) {
          return "allocating=" + std::to_string(plain) +
                 " scratch=" + std::to_string(reused) + " (row T" +
                 std::to_string(t) + ", pattern S" + std::to_string(p) + ")";
        }
      }
    }
    return std::string();
  }));
}

// With an unconstrained spec the Q table must equal the Lemma 3 P table
// entry-wise, and the count must equal the Lemma 2 count.
TEST(ConstrainedCountProps, UnconstrainedDegeneratesToLemma2And3) {
  PropConfig config;
  config.name = "constrained-count/unconstrained-degenerates";
  config.seed = 0x5eed0303;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    const ConstraintSpec trivial;
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        uint64_t constrained =
            CountConstrainedMatchings(inst.patterns[p], trivial, inst.db[t]);
        uint64_t plain = CountMatchings(inst.patterns[p], inst.db[t]);
        if (constrained != plain) {
          return "unconstrained dispatch=" + std::to_string(constrained) +
                 " but Lemma 2 count=" + std::to_string(plain) + " (row T" +
                 std::to_string(t) + ", pattern S" + std::to_string(p) + ")";
        }
        auto q = testutil::SequenceTable(inst.patterns[p], trivial,
                                         inst.db[t]);
        auto lemma3 = BuildPrefixEndTableNaive(inst.patterns[p], inst.db[t]);
        if (q != lemma3) {
          return "Q table != P table on an unconstrained spec (row T" +
                 std::to_string(t) + ", pattern S" + std::to_string(p) + ")";
        }
      }
    }
    return std::string();
  }));
}

TEST(ConstrainedCountProps, SupportPredicateEqualsOracle) {
  PropConfig config;
  config.name = "constrained-count/support-equals-oracle";
  config.seed = 0x5eed0304;
  config.gen.constrained_probability = 0.7;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      ConstraintSpec spec = SpecFor(inst, p);
      for (size_t t = 0; t < inst.db.size(); ++t) {
        bool fast = HasConstrainedMatch(inst.patterns[p], spec, inst.db[t]);
        bool oracle = OracleHasMatch(inst.patterns[p], spec, inst.db[t]);
        if (fast != oracle) {
          return std::string("HasConstrainedMatch=") +
                 (fast ? "true" : "false") + " but oracle says " +
                 (oracle ? "true" : "false") + " (row T" + std::to_string(t) +
                 ", pattern S" + std::to_string(p) + ", spec " +
                 spec.ToString() + ")";
        }
      }
    }
    return std::string();
  }));
}

// Metamorphic: tightening a constraint never increases the count. Checked
// by comparing each pattern's constrained count against its unconstrained
// count on the same row.
TEST(ConstrainedCountProps, ConstraintsOnlyShrinkCounts) {
  PropConfig config;
  config.name = "constrained-count/constraints-shrink";
  config.seed = 0x5eed0305;
  config.gen.constrained_probability = 0.9;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        ConstraintSpec spec = SpecFor(inst, p);
        uint64_t constrained =
            CountConstrainedMatchings(inst.patterns[p], spec, inst.db[t]);
        uint64_t unconstrained = CountMatchings(inst.patterns[p], inst.db[t]);
        if (constrained > unconstrained) {
          return "constrained count " + std::to_string(constrained) +
                 " exceeds unconstrained " + std::to_string(unconstrained) +
                 " (row T" + std::to_string(t) + ", pattern S" +
                 std::to_string(p) + ", spec " + spec.ToString() + ")";
        }
      }
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
