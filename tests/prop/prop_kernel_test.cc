// Differential properties for the matching kernel (match/pattern_trie.h,
// match/kernel.h): the trie and every kernel entry point must agree, bit
// for bit, with the definitional enumeration oracles on seeded random
// instances. A disagreement *is* the bug report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/match/count.h"
#include "src/match/kernel.h"
#include "src/match/pattern_trie.h"
#include "src/match/scratch.h"
#include "src/seq/signature.h"
#include "src/testing/oracles.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

std::string Where(size_t row, size_t pattern) {
  return " (row T" + std::to_string(row) + ", pattern S" +
         std::to_string(pattern) + ")";
}

// One trie pass over a row == one oracle enumeration per covered pattern.
TEST(KernelProps, TrieCountsEqualOracle) {
  PropConfig config;
  config.name = "kernel/trie-counts-equal-oracle";
  config.seed = 0x5eed0803;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    const PatternTrie trie(inst.patterns, inst.constraints);
    MatchScratch scratch;
    std::vector<uint64_t> counts(inst.patterns.size(), 0);
    for (size_t t = 0; t < inst.db.size(); ++t) {
      if (!trie.CountAll(inst.db[t], &scratch, counts.data())) {
        return std::string("CountAll refused an unbudgeted scratch");
      }
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        if (!trie.Covers(p)) continue;
        const uint64_t oracle =
            OracleCountMatchings(inst.patterns[p], inst.db[t]);
        if (counts[p] != oracle) {
          return "trie count=" + std::to_string(counts[p]) +
                 " but enumeration=" + std::to_string(oracle) + Where(t, p);
        }
      }
    }
    return std::string();
  }));
}

// The kernel facade over pattern sets of 1..6 patterns with the
// generator's constraint mix (unconstrained, gaps, windows): CountRow
// (unscreened and signature-screened), CountPattern and HasMatch all
// return the oracle's answer for every (row, pattern) pair. Under a
// scratch budget that refuses the trie's node row but admits every
// per-pattern Lemma 2 row, CountRow still counts each unconstrained
// pattern exactly, by its own DP. (The budget may also refuse a
// constrained pattern's table; those counts are not checked there.)
TEST(KernelProps, KernelMatchesConstrainedOracle) {
  PropConfig config;
  config.name = "kernel/kernel-matches-oracle";
  config.seed = 0x5eed0804;
  config.gen.max_patterns = 6;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    const ConstraintSpec unconstrained;
    const MatchKernel kernel(inst.patterns, inst.constraints);
    const PatternTrie trie(inst.patterns, inst.constraints);
    size_t longest = 0;
    for (const Sequence& p : inst.patterns) {
      longest = std::max(longest, p.size());
    }
    MatchScratch scratch;
    MatchScratch budgeted;
    // Room for the longest pattern's m+1 DP row; the trie needs one cell
    // per distinct prefix, so it is refused whenever it has more.
    budgeted.max_table_bytes = (longest + 1) * sizeof(uint64_t);
    const bool trie_refused = trie.num_covered() > 0 &&
                              trie.num_nodes() > longest + 1;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> screened;
    std::vector<uint64_t> fallback;
    for (size_t t = 0; t < inst.db.size(); ++t) {
      const Sequence& row = inst.db[t];
      const uint64_t total = kernel.CountRow(row, &scratch, &counts);
      kernel.CountRow(row, SequenceSignature(row), &scratch, &screened);
      budgeted.exhausted = false;
      kernel.CountRow(row, &budgeted, &fallback);
      if (trie_refused && !budgeted.exhausted) {
        return "budgeted CountRow did not report the refused trie row (row T" +
               std::to_string(t) + ")";
      }
      uint64_t sum = 0;
      for (size_t p = 0; p < inst.patterns.size(); ++p) {
        const ConstraintSpec& spec =
            inst.constraints.empty() ? unconstrained : inst.constraints[p];
        const uint64_t oracle = OracleConstrainedCount(inst.patterns[p], spec,
                                                       row);
        sum = SatAdd(sum, oracle);
        if (counts[p] != oracle || screened[p] != oracle ||
            (trie.Covers(p) && fallback[p] != oracle)) {
          return "CountRow[" + std::to_string(p) +
                 "]=" + std::to_string(counts[p]) +
                 " screened=" + std::to_string(screened[p]) +
                 " budgeted=" + std::to_string(fallback[p]) +
                 " but enumeration=" + std::to_string(oracle) + Where(t, p);
        }
        const uint64_t single = kernel.CountPattern(p, row, &scratch);
        if (single != oracle) {
          return "CountPattern=" + std::to_string(single) +
                 " but enumeration=" + std::to_string(oracle) + Where(t, p);
        }
        const bool has = kernel.HasMatch(p, row, &scratch);
        if (has != (oracle > 0)) {
          return std::string("HasMatch=") + (has ? "yes" : "no") +
                 " but enumeration count=" + std::to_string(oracle) +
                 Where(t, p);
        }
      }
      if (total != sum) {
        return "CountRow total=" + std::to_string(total) +
               " but oracle sum=" + std::to_string(sum) + " (row T" +
               std::to_string(t) + ")";
      }
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
