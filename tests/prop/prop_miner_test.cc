// Differential properties for the PrefixSpan miner (mine/prefix_span.h),
// whose frequent roots are mined as separate tasks on the shared pool and
// spliced back in root order: on random databases with Δ positions it
// must equal the level-wise oracle (src/testing/level_wise.h) exactly,
// patterns, supports and status, for σ giving no, one and many frequent
// roots, max_length in {0, 1, 2, 4} and min_length in {1, 2, 3}; and it
// must mine large sparse symbol ids exactly like the dense ids they
// relabel in order.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "src/mine/pattern_set.h"
#include "src/mine/prefix_span.h"
#include "src/testing/level_wise.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

// Order-preserving relabelling of dense ids 0..7 onto far-apart ids.
constexpr SymbolId kSparse[] = {3,       70,       4099,       65536,
                                1000000, 50000000, 1000000000, 2147483646};

std::string Describe(const MinerOptions& opts) {
  return " (sigma=" + std::to_string(opts.min_support) +
         " min_length=" + std::to_string(opts.min_length) +
         " max_length=" + std::to_string(opts.max_length) + ")";
}

SequenceDatabase Sparse(const SequenceDatabase& dense) {
  SequenceDatabase sparse;
  for (const Sequence& row : dense.sequences()) {
    std::vector<SymbolId> ids;
    for (SymbolId s : row.symbols()) {
      ids.push_back(IsRealSymbol(s) ? kSparse[s] : s);
    }
    sparse.Add(Sequence(std::move(ids)));
  }
  return sparse;
}

// `mined` (over sparse ids) with its ids mapped back to dense ones.
FrequentPatternSet Dense(const FrequentPatternSet& mined) {
  FrequentPatternSet dense;
  mined.ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
    std::vector<SymbolId> ids;
    for (SymbolId s : pattern) {
      ids.push_back(static_cast<SymbolId>(
          std::find(std::begin(kSparse), std::end(kSparse), s) -
          std::begin(kSparse)));
    }
    dense.Add(ids, support);
  });
  return dense;
}

// PrefixSpan on the dense and the sparse database against the oracle.
std::string CheckOptions(const SequenceDatabase& dense,
                         const SequenceDatabase& sparse,
                         const MinerOptions& opts) {
  auto oracle = MineFrequentSequencesLevelWise(dense, opts);
  auto mined = MineFrequentSequences(dense, opts);
  auto mined_sparse = MineFrequentSequences(sparse, opts);
  if (!oracle.ok() || !mined.ok() || !mined_sparse.ok()) {
    return "mining failed: oracle " + oracle.status().ToString() +
           ", dense " + mined.status().ToString() + ", sparse " +
           mined_sparse.status().ToString() + Describe(opts);
  }
  if (!(*mined == *oracle)) {
    return "PrefixSpan |F|=" + std::to_string(mined->size()) +
           " != level-wise " + std::to_string(oracle->size()) +
           Describe(opts);
  }
  if (!(Dense(*mined_sparse) == *oracle)) {
    return "PrefixSpan on sparse ids |F|=" +
           std::to_string(mined_sparse->size()) + " != level-wise " +
           std::to_string(oracle->size()) + Describe(opts);
  }
  return std::string();
}

PropConfig Config(const char* name, uint64_t seed) {
  PropConfig config;
  config.name = name;
  config.seed = seed;
  config.gen.max_sequences = 12;
  config.gen.max_length = 10;
  config.gen.max_alphabet = 8;
  return config;
}

TEST(MinerProps, PrefixSpanEqualsLevelWise) {
  EXPECT_PROP_OK(CheckProperty(
      Config("mine/prefix-span-equals-level-wise", 0x5eed0e01),
      [](const PropInstance& inst) {
        const SequenceDatabase sparse = Sparse(inst.db);
        // σ = 1 and 2 give many roots; rows / 2 + 1 few or one; rows + 1
        // none.
        const size_t rows = inst.db.size();
        for (size_t sigma : {size_t{1}, size_t{2}, rows / 2 + 1, rows + 1}) {
          for (size_t max_length : {0u, 1u, 2u, 4u}) {
            for (size_t min_length : {1u, 2u, 3u}) {
              if (max_length != 0 && min_length > max_length) continue;
              MinerOptions opts;
              opts.min_support = sigma;
              opts.min_length = min_length;
              opts.max_length = max_length;
              std::string failure = CheckOptions(inst.db, sparse, opts);
              if (!failure.empty()) return failure;
            }
          }
        }
        return std::string();
      }));
}

// A single-symbol alphabet: exactly one possible root, a chain below it.
TEST(MinerProps, OneRootChainsEqualLevelWise) {
  PropConfig config = Config("mine/one-root-equals-level-wise", 0x5eed0e02);
  config.gen.min_alphabet = 1;
  config.gen.max_alphabet = 1;
  EXPECT_PROP_OK(
      CheckProperty(config, [](const PropInstance& inst) {
        const SequenceDatabase sparse = Sparse(inst.db);
        for (size_t sigma : {1u, 2u, 3u}) {
          for (size_t max_length : {0u, 1u, 4u}) {
            MinerOptions opts;
            opts.min_support = sigma;
            opts.max_length = max_length;
            std::string failure = CheckOptions(inst.db, sparse, opts);
            if (!failure.empty()) return failure;
          }
        }
        return std::string();
      }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
