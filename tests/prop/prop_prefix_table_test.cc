// Differential properties for the Lemma 3 / Lemma 4 end tables of
// sequence patterns (FillGapEndTable on SequenceLanguage,
// match/language.h), over GenInstance's Δ-bearing rows: unconstrained,
// the table must agree entry-wise with the O(n²m) naive transcription of
// the paper's recurrence and with enumeration; under the instance's gaps
// (its window dropped), entry-wise with enumerate-and-filter counts. A
// warm scratch must fill the same table as a fresh one, and the table
// must tie back to the Lemma 2 count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

using testutil::SequenceTable;

// Entry-wise comparison with a located failure message.
std::string DiffTables(const PrefixEndTable& got, const PrefixEndTable& want,
                       const std::string& got_name,
                       const std::string& want_name, size_t row,
                       size_t pattern) {
  if (got.size() != want.size()) {
    return got_name + " has " + std::to_string(got.size()) + " rows, " +
           want_name + " has " + std::to_string(want.size());
  }
  for (size_t k = 0; k < got.size(); ++k) {
    if (got[k].size() != want[k].size()) {
      return got_name + " row " + std::to_string(k) + " width " +
             std::to_string(got[k].size()) + " != " +
             std::to_string(want[k].size());
    }
    for (size_t j = 0; j < got[k].size(); ++j) {
      if (got[k][j] != want[k][j]) {
        return got_name + "[" + std::to_string(k) + "][" + std::to_string(j) +
               "]=" + std::to_string(got[k][j]) + " but " + want_name + "=" +
               std::to_string(want[k][j]) + " (row T" + std::to_string(row) +
               ", pattern S" + std::to_string(pattern) + ")";
      }
    }
  }
  return std::string();
}

// The instance's spec for pattern p with its window dropped: the gaps
// alone, which is all the end table reads.
ConstraintSpec GapsOf(const PropInstance& inst, size_t p) {
  if (inst.constraints.empty()) return ConstraintSpec();
  std::vector<GapBound> gaps;
  for (size_t a = 0; a + 1 < inst.patterns[p].size(); ++a) {
    gaps.push_back(inst.constraints[p].gap(a));
  }
  return ConstraintSpec::PerArrow(std::move(gaps));
}

// Q[k][j] by enumeration: the gap-valid embeddings of S[1..k] in T[1..j]
// less those in T[1..j−1]. Gaps bind only positions up to the last
// matched one, so the difference is exactly the embeddings ending at j.
PrefixEndTable OracleGapEndTable(const Sequence& pattern,
                                 const ConstraintSpec& gaps,
                                 const Sequence& row) {
  const size_t m = pattern.size();
  const size_t n = row.size();
  PrefixEndTable table(m + 1, DpRow(n + 1, 0));
  table[0][0] = 1;
  for (size_t k = 1; k <= m; ++k) {
    std::vector<GapBound> prefix_gaps;
    for (size_t a = 0; a + 1 < k; ++a) prefix_gaps.push_back(gaps.gap(a));
    const ConstraintSpec prefix_spec =
        ConstraintSpec::PerArrow(std::move(prefix_gaps));
    const std::vector<SymbolId>& s = pattern.symbols();
    const Sequence prefix(std::vector<SymbolId>(s.begin(), s.begin() + k));
    uint64_t before = 0;
    for (size_t j = 1; j <= n; ++j) {
      const std::vector<SymbolId>& r = row.symbols();
      const Sequence head(std::vector<SymbolId>(r.begin(), r.begin() + j));
      const uint64_t upto = OracleConstrainedCount(prefix, prefix_spec, head);
      table[k][j] = upto - before;
      before = upto;
    }
  }
  return table;
}

TEST(PrefixTableProps, FastEqualsEnumeration) {
  PropConfig config;
  config.name = "prefix-table/fast-equals-enumeration";
  config.seed = 0x5eed0101;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto fast =
            SequenceTable(inst.patterns[p], ConstraintSpec(), inst.db[t]);
        auto oracle = OraclePrefixEndTable(inst.patterns[p], inst.db[t]);
        std::string diff =
            DiffTables(fast, oracle, "fast", "enumeration", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

// The language table, unconstrained and under the instance's gaps, against
// the naive recurrence and the enumerate-and-filter counts.
TEST(PrefixTableProps, NaiveEqualsFast) {
  PropConfig config;
  config.name = "prefix-table/naive-equals-fast";
  config.seed = 0x5eed0102;
  config.gen.constrained_probability = 0.7;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto naive = BuildPrefixEndTableNaive(inst.patterns[p], inst.db[t]);
        auto fast =
            SequenceTable(inst.patterns[p], ConstraintSpec(), inst.db[t]);
        std::string diff = DiffTables(naive, fast, "naive", "fast", t, p);
        if (!diff.empty()) return diff;
        const ConstraintSpec gaps = GapsOf(inst, p);
        auto gap_table = SequenceTable(inst.patterns[p], gaps, inst.db[t]);
        auto oracle = OracleGapEndTable(inst.patterns[p], gaps, inst.db[t]);
        diff = DiffTables(gap_table, oracle, "gap table " + gaps.ToString(),
                          "filtered enumeration", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

// One scratch, warmed by tables of every (pattern, row) size of the
// instance, fills the same table as a fresh one.
TEST(PrefixTableProps, ScratchVariantIsBitIdentical) {
  PropConfig config;
  config.name = "prefix-table/scratch-equals-allocating";
  config.seed = 0x5eed0103;
  config.gen.constrained_probability = 0.7;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    MatchScratch scratch;
    PrefixEndTable reused;
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        const ConstraintSpec gaps = GapsOf(inst, p);
        auto plain = SequenceTable(inst.patterns[p], gaps, inst.db[t]);
        FillGapEndTable(SequenceLanguage(inst.patterns[p], gaps, inst.db[t]),
                        &scratch, &reused);
        std::string diff =
            DiffTables(reused, plain, "scratch", "allocating", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

// Lemma 3 ties back to Lemma 2: Σ_j P[m][j] = |M_S^T|.
TEST(PrefixTableProps, TotalRecoversLemma2Count) {
  PropConfig config;
  config.name = "prefix-table/total-equals-count";
  config.seed = 0x5eed0104;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto table =
            SequenceTable(inst.patterns[p], ConstraintSpec(), inst.db[t]);
        uint64_t from_table = TotalFromPrefixEndTable(table);
        uint64_t count = CountMatchings(inst.patterns[p], inst.db[t]);
        if (from_table != count) {
          return "sum of last table row = " + std::to_string(from_table) +
                 " but CountMatchings = " + std::to_string(count) +
                 " (row T" + std::to_string(t) + ", pattern S" +
                 std::to_string(p) + ")";
        }
      }
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
