// Unit tests for the matching-kernel dispatch layer (match/kernel.h):
// flag parsing, the auto-dispatch heuristic and its SEQHIDE_KERNEL
// override, the m = 64 / m = 65 single-word boundary, and the contract
// that the chosen engine is invisible in every sanitize output.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/sanitizer.h"
#include "src/match/bitset_match.h"
#include "src/match/count.h"
#include "src/match/kernel.h"
#include "src/match/scratch.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

Sequence CyclicPattern(size_t length, size_t alphabet_size) {
  Sequence seq;
  for (size_t i = 0; i < length; ++i) {
    seq.Append(static_cast<SymbolId>(i % alphabet_size));
  }
  return seq;
}

TEST(KernelEngineTest, ParseAndToStringRoundTrip) {
  for (KernelEngine engine : {KernelEngine::kAuto, KernelEngine::kScalar,
                              KernelEngine::kBitset, KernelEngine::kTrie}) {
    KernelEngine parsed;
    ASSERT_TRUE(ParseKernelEngine(ToString(engine), &parsed))
        << ToString(engine);
    EXPECT_EQ(parsed, engine);
  }
  KernelEngine parsed;
  EXPECT_FALSE(ParseKernelEngine("", &parsed));
  EXPECT_FALSE(ParseKernelEngine("Trie", &parsed));
  EXPECT_FALSE(ParseKernelEngine("simd", &parsed));
}

TEST(KernelEngineTest, AutoDispatchHeuristic) {
  const std::vector<ConstraintSpec> none;
  // Two unconstrained patterns share a trie.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2, 0}};
    EXPECT_EQ(ResolveKernelEngine(KernelEngine::kAuto, patterns, none),
              KernelEngine::kTrie);
  }
  // A single word-sized pattern gets the bit-parallel kernel.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1, 2}};
    EXPECT_EQ(ResolveKernelEngine(KernelEngine::kAuto, patterns, none),
              KernelEngine::kBitset);
  }
  // Constrained patterns never reach the trie; word-sized ones still
  // benefit from the Shift-And screen.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2}};
    std::vector<ConstraintSpec> constraints(2,
                                            ConstraintSpec::UniformGap(0, 2));
    EXPECT_EQ(ResolveKernelEngine(KernelEngine::kAuto, patterns, constraints),
              KernelEngine::kBitset);
  }
  // A pattern past the 64-symbol word falls back to scalar.
  {
    std::vector<Sequence> patterns = {CyclicPattern(65, 4)};
    EXPECT_EQ(ResolveKernelEngine(KernelEngine::kAuto, patterns, none),
              KernelEngine::kScalar);
  }
  // An explicit pin always wins.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2, 0}};
    EXPECT_EQ(ResolveKernelEngine(KernelEngine::kScalar, patterns, none),
              KernelEngine::kScalar);
  }
}

TEST(KernelEngineTest, EnvironmentOverridesAuto) {
  const std::vector<ConstraintSpec> none;
  std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2, 0}};
  ASSERT_EQ(::setenv("SEQHIDE_KERNEL", "scalar", 1), 0);
  EXPECT_EQ(ResolveKernelEngine(KernelEngine::kAuto, patterns, none),
            KernelEngine::kScalar);
  // The env pin only fills in auto; explicit requests are untouched.
  EXPECT_EQ(ResolveKernelEngine(KernelEngine::kTrie, patterns, none),
            KernelEngine::kTrie);
  // Garbage in the env var is ignored, not fatal.
  ASSERT_EQ(::setenv("SEQHIDE_KERNEL", "warp", 1), 0);
  EXPECT_EQ(ResolveKernelEngine(KernelEngine::kAuto, patterns, none),
            KernelEngine::kTrie);
  ASSERT_EQ(::unsetenv("SEQHIDE_KERNEL"), 0);
}

// The single-word boundary: m = 64 still runs bit-parallel, m = 65 does
// not — and both count exactly like the scalar DP.
TEST(KernelEngineTest, WordBoundaryAt64Symbols) {
  const size_t kAlphabet = 4;
  Rng rng(77);
  const Sequence text = testutil::RandomSeq(&rng, 400, kAlphabet);
  MatchScratch scratch;
  const std::vector<ConstraintSpec> none;  // MatchKernel borrows this
  for (size_t m : {63u, 64u, 65u}) {
    const Sequence pattern = CyclicPattern(m, kAlphabet);
    const SymbolMasks masks(pattern);
    EXPECT_EQ(masks.usable(), m <= kBitsetMaxPatternLength) << m;

    const std::vector<Sequence> patterns = {pattern};
    const MatchKernel kernel(patterns, none, KernelEngine::kBitset);
    const uint64_t scalar = CountMatchings(pattern, text, &scratch);
    EXPECT_EQ(kernel.CountPattern(0, text, &scratch), scalar) << m;
    EXPECT_EQ(kernel.HasMatch(0, text, &scratch), scalar > 0) << m;
  }
}

// --kernel is a pure speed knob: every engine × thread count must release
// the identical database and report. (The bench engine-sweep additionally
// pins the semantic counters; this is the library-level contract.)
TEST(KernelEngineTest, EngineIsInvisibleInSanitizeOutput) {
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
  reference_opts.kernel = KernelEngine::kScalar;
  reference_opts.num_threads = 1;
  SequenceDatabase reference_db = base;
  auto reference = Sanitize(&reference_db, patterns, reference_opts);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->kernel_engine, "scalar");

  for (KernelEngine engine : {KernelEngine::kScalar, KernelEngine::kBitset,
                              KernelEngine::kTrie}) {
    for (size_t threads : {1u, 2u, 8u}) {
      SanitizeOptions opts = reference_opts;
      opts.kernel = engine;
      opts.num_threads = threads;
      SequenceDatabase db = base;
      auto report = Sanitize(&db, patterns, opts);
      const std::string what =
          ToString(engine) + "/threads=" + std::to_string(threads);
      ASSERT_TRUE(report.ok()) << what << ": " << report.status();
      EXPECT_EQ(report->kernel_engine, ToString(engine)) << what;
      ASSERT_EQ(db.size(), reference_db.size()) << what;
      for (size_t t = 0; t < db.size(); ++t) {
        EXPECT_TRUE(db[t] == reference_db[t]) << what << " row " << t;
      }
      EXPECT_EQ(report->marks_introduced, reference->marks_introduced)
          << what;
      EXPECT_EQ(report->sequences_sanitized, reference->sequences_sanitized)
          << what;
      EXPECT_EQ(report->supports_before, reference->supports_before) << what;
      EXPECT_EQ(report->supports_after, reference->supports_after) << what;
    }
  }
}

}  // namespace
}  // namespace seqhide
