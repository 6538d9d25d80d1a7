// Unit tests for the matching kernel (match/kernel.h): CountRow (plain and
// signature-screened), CountPattern and HasMatch against the brute-force
// oracles of src/testing/ on every pattern-set shape the kernel routes
// differently — one unconstrained pattern, shared-prefix sets,
// constrained-only and mixed sets, patterns past 64 symbols, Δ rows, and
// a scratch budget that refuses the trie's node row — plus the contract
// that the thread count is invisible in every sanitize output.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/sanitizer.h"
#include "src/match/count.h"
#include "src/match/kernel.h"
#include "src/match/scratch.h"
#include "src/seq/signature.h"
#include "src/testing/oracles.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using proptest::OracleConstrainedCount;
using proptest::OracleHasMatch;

// Every kernel entry point on every (row, pattern) pair equals the
// enumeration oracle; CountRow's total is the saturating oracle sum.
void ExpectKernelMatchesOracle(const std::vector<Sequence>& patterns,
                               const std::vector<ConstraintSpec>& constraints,
                               const std::vector<Sequence>& rows,
                               MatchScratch* scratch) {
  const MatchKernel kernel(patterns, constraints);
  const ConstraintSpec unconstrained;
  std::vector<uint64_t> counts;
  std::vector<uint64_t> screened;
  for (size_t t = 0; t < rows.size(); ++t) {
    const uint64_t total = kernel.CountRow(rows[t], scratch, &counts);
    const uint64_t screened_total = kernel.CountRow(
        rows[t], SequenceSignature(rows[t]), scratch, &screened);
    ASSERT_EQ(counts.size(), patterns.size());
    uint64_t sum = 0;
    for (size_t p = 0; p < patterns.size(); ++p) {
      const ConstraintSpec& spec =
          constraints.empty() ? unconstrained : constraints[p];
      const uint64_t oracle = OracleConstrainedCount(patterns[p], spec, rows[t]);
      sum = SatAdd(sum, oracle);
      const std::string where =
          "row " + std::to_string(t) + " pattern " + std::to_string(p);
      EXPECT_EQ(counts[p], oracle) << where;
      EXPECT_EQ(screened[p], oracle) << where;
      EXPECT_EQ(kernel.CountPattern(p, rows[t], scratch), oracle) << where;
      EXPECT_EQ(kernel.HasMatch(p, rows[t], scratch),
                OracleHasMatch(patterns[p], spec, rows[t]))
          << where;
    }
    EXPECT_EQ(total, sum) << "row " << t;
    EXPECT_EQ(screened_total, sum) << "row " << t;
  }
}

std::vector<Sequence> RandomRows(Rng* rng, size_t count, size_t length,
                                 size_t alphabet) {
  std::vector<Sequence> rows;
  for (size_t i = 0; i < count; ++i) {
    rows.push_back(testutil::RandomSeq(rng, length, alphabet));
  }
  return rows;
}

TEST(MatchKernelTest, SinglePatternMatchesOracle) {
  Rng rng(11);
  const std::vector<Sequence> rows = RandomRows(&rng, 24, 12, 3);
  const std::vector<Sequence> patterns = {Sequence{0, 1, 0}};
  const std::vector<ConstraintSpec> none;
  MatchScratch scratch;
  ExpectKernelMatchesOracle(patterns, none, rows, &scratch);
  EXPECT_FALSE(scratch.exhausted);
}

TEST(MatchKernelTest, SharedPrefixPatternsMatchOracle) {
  Rng rng(12);
  const std::vector<Sequence> rows = RandomRows(&rng, 24, 12, 3);
  // Shared prefixes, a pattern that is a prefix of another, and a
  // same-symbol parent→child chain (the trie's deepest-first order).
  const std::vector<Sequence> patterns = {
      Sequence{0, 1}, Sequence{0, 1, 2}, Sequence{0, 1, 1},
      Sequence{0, 0, 0}, Sequence{2, 1}};
  const std::vector<ConstraintSpec> none;
  MatchScratch scratch;
  ExpectKernelMatchesOracle(patterns, none, rows, &scratch);
}

TEST(MatchKernelTest, ConstrainedOnlySetMatchesOracle) {
  Rng rng(13);
  const std::vector<Sequence> rows = RandomRows(&rng, 24, 12, 3);
  const std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2, 0},
                                          Sequence{0, 0}};
  const std::vector<ConstraintSpec> constraints = {
      ConstraintSpec::UniformGap(0, 2), ConstraintSpec::Window(5),
      ConstraintSpec::UniformGap(1, 3)};
  MatchScratch scratch;
  ExpectKernelMatchesOracle(patterns, constraints, rows, &scratch);
}

TEST(MatchKernelTest, MixedSetMatchesOracle) {
  Rng rng(14);
  const std::vector<Sequence> rows = RandomRows(&rng, 24, 12, 3);
  const std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{0, 1, 2},
                                          Sequence{1, 2}, Sequence{2, 0, 1}};
  const std::vector<ConstraintSpec> constraints = {
      ConstraintSpec(), ConstraintSpec::UniformGap(0, 1), ConstraintSpec(),
      ConstraintSpec::Window(4)};
  MatchScratch scratch;
  ExpectKernelMatchesOracle(patterns, constraints, rows, &scratch);
}

// m = 63 / 64 / 65 straddle the 64-symbol word limit of the deleted
// bit-parallel engine; every length now counts on the trie alone or
// together with its prefixes. The rows hold 65 distinct symbols with nine
// of them doubled, so the oracle walks at most 2^9 embeddings.
TEST(MatchKernelTest, WordBoundaryAt64Symbols) {
  Sequence full;
  for (SymbolId s = 0; s < 65; ++s) full.Append(s);
  Sequence doubled;
  for (SymbolId s = 0; s < 65; ++s) {
    doubled.Append(s);
    if (s % 8 == 0) doubled.Append(s);
  }
  Sequence missing_one = doubled;
  missing_one.Mark(40);  // Δ over symbol 35: no full-length embedding
  const std::vector<Sequence> rows = {full, doubled, missing_one};
  const std::vector<ConstraintSpec> none;
  std::vector<Sequence> all;
  for (size_t m : {63u, 64u, 65u}) {
    Sequence prefix;
    for (size_t i = 0; i < m; ++i) prefix.Append(full[i]);
    all.push_back(prefix);
    MatchScratch scratch;
    ExpectKernelMatchesOracle({prefix}, none, rows, &scratch);
  }
  MatchScratch scratch;
  ExpectKernelMatchesOracle(all, none, rows, &scratch);
  // And against the per-pattern DP where the oracle is not needed.
  const MatchKernel kernel(all, none);
  std::vector<uint64_t> counts;
  kernel.CountRow(doubled, &scratch, &counts);
  EXPECT_EQ(counts[2], CountMatchings(all[2], doubled));
  EXPECT_EQ(counts[2], uint64_t{1} << 9);
}

TEST(MatchKernelTest, DeltaRowsMatchOracle) {
  Rng rng(15);
  std::vector<Sequence> rows;
  for (size_t i = 0; i < 24; ++i) {
    rows.push_back(proptest::GenSequence(&rng, 12, 3, /*delta_density=*/0.3,
                                         /*repeat_bias=*/0.2));
  }
  rows.push_back(Sequence{kDeltaSymbol, kDeltaSymbol});
  rows.push_back(Sequence{});
  const std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{0, 1, 2},
                                          Sequence{1, 1}};
  const std::vector<ConstraintSpec> constraints = {
      ConstraintSpec(), ConstraintSpec(), ConstraintSpec::UniformGap(0, 2)};
  MatchScratch scratch;
  ExpectKernelMatchesOracle(patterns, constraints, rows, &scratch);
}

// A budget of m+1 cells for the longest pattern admits every per-pattern
// Lemma 2 row but refuses the trie's node row (9 nodes here): CountRow
// falls back per pattern with the same counts, and the refusal is
// reported through the scratch's sticky flag.
TEST(MatchKernelTest, BudgetRefusingTheTrieRowFallsBackPerPattern) {
  Rng rng(16);
  const std::vector<Sequence> rows = RandomRows(&rng, 24, 12, 3);
  const std::vector<Sequence> patterns = {Sequence{0, 1, 2},
                                          Sequence{1, 2, 0}, Sequence{2, 2}};
  const std::vector<ConstraintSpec> none;
  MatchScratch scratch;
  scratch.max_table_bytes = 4 * sizeof(uint64_t);
  ExpectKernelMatchesOracle(patterns, none, rows, &scratch);
  EXPECT_TRUE(scratch.exhausted);

  MatchScratch roomy;
  roomy.max_table_bytes = 9 * sizeof(uint64_t);
  ExpectKernelMatchesOracle(patterns, none, rows, &roomy);
  EXPECT_FALSE(roomy.exhausted);
}

// The thread count is a pure speed knob: every count releases the
// identical database and report.
TEST(MatchKernelTest, ThreadCountIsInvisibleInSanitizeOutput) {
  Rng rng(4242);
  SequenceDatabase base = testutil::RandomDb(&rng, /*rows=*/60,
                                             /*min_length=*/6,
                                             /*max_length=*/18,
                                             /*alphabet_size=*/5);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 5),
                                    testutil::RandomSeq(&rng, 3, 5),
                                    testutil::RandomSeq(&rng, 4, 5)};

  SanitizeOptions reference_opts = SanitizeOptions::HH();
  reference_opts.psi = 2;
  reference_opts.num_threads = 1;
  SequenceDatabase reference_db = base;
  auto reference = Sanitize(&reference_db, patterns, reference_opts);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (size_t threads : {2u, 8u}) {
    SanitizeOptions opts = reference_opts;
    opts.num_threads = threads;
    SequenceDatabase db = base;
    auto report = Sanitize(&db, patterns, opts);
    const std::string what = "threads=" + std::to_string(threads);
    ASSERT_TRUE(report.ok()) << what << ": " << report.status();
    ASSERT_EQ(db.size(), reference_db.size()) << what;
    for (size_t t = 0; t < db.size(); ++t) {
      EXPECT_TRUE(db[t] == reference_db[t]) << what << " row " << t;
    }
    EXPECT_EQ(report->marks_introduced, reference->marks_introduced) << what;
    EXPECT_EQ(report->sequences_sanitized, reference->sequences_sanitized)
        << what;
    EXPECT_EQ(report->supports_before, reference->supports_before) << what;
    EXPECT_EQ(report->supports_after, reference->supports_after) << what;
  }
}

}  // namespace
}  // namespace seqhide
