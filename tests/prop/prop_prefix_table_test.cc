// Differential properties for the Lemma 3 prefix tables
// (match/prefix_table.h): the O(nm) prefix-sum build, the O(n²m) naive
// transcription of the paper's recurrence, and the scratch-reuse variant
// must agree entry-wise with each other and with enumeration, and the
// table must tie back to the Lemma 2 count.

#include <gtest/gtest.h>

#include <string>

#include "src/match/count.h"
#include "src/match/prefix_table.h"
#include "src/match/scratch.h"
#include "src/testing/delta_oracles.h"
#include "src/testing/oracles.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

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

TEST(PrefixTableProps, FastEqualsEnumeration) {
  PropConfig config;
  config.name = "prefix-table/fast-equals-enumeration";
  config.seed = 0x5eed0101;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto fast = BuildPrefixEndTable(inst.patterns[p], inst.db[t]);
        auto oracle = OraclePrefixEndTable(inst.patterns[p], inst.db[t]);
        std::string diff =
            DiffTables(fast, oracle, "fast", "enumeration", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

TEST(PrefixTableProps, NaiveEqualsFast) {
  PropConfig config;
  config.name = "prefix-table/naive-equals-fast";
  config.seed = 0x5eed0102;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto naive = BuildPrefixEndTableNaive(inst.patterns[p], inst.db[t]);
        auto fast = BuildPrefixEndTable(inst.patterns[p], inst.db[t]);
        std::string diff = DiffTables(naive, fast, "naive", "fast", t, p);
        if (!diff.empty()) return diff;
      }
    }
    return std::string();
  }));
}

TEST(PrefixTableProps, ScratchVariantIsBitIdentical) {
  PropConfig config;
  config.name = "prefix-table/scratch-equals-allocating";
  config.seed = 0x5eed0103;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    MatchScratch scratch;
    PrefixEndTable reused;
    for (size_t t = 0; t < inst.db.size(); ++t) {
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        auto plain = BuildPrefixEndTable(inst.patterns[p], inst.db[t]);
        BuildPrefixEndTableInto(inst.patterns[p], inst.db[t], &scratch,
                                &reused);
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
        auto table = BuildPrefixEndTable(inst.patterns[p], inst.db[t]);
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
