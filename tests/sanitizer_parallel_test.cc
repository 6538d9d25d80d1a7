// Tests for the Sanitizer's thread parallelism: every thread count must
// be bit-identical to the single-threaded run for every strategy. (The
// parity test keeps its name from when it also covered an index-pruning
// option.)

#include <gtest/gtest.h>

#include "src/data/workload.h"
#include "src/hide/sanitizer.h"
#include "src/match/subsequence.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

// Runs one configuration and returns the released database.
SequenceDatabase RunWith(const SequenceDatabase& base,
                         const std::vector<Sequence>& patterns,
                         SanitizeOptions opts, size_t* marks) {
  SequenceDatabase db = base;
  auto report = Sanitize(&db, patterns, opts);
  EXPECT_TRUE(report.ok()) << report.status();
  if (marks != nullptr) *marks = report->marks_introduced;
  return db;
}

bool SameContent(const SequenceDatabase& a, const SequenceDatabase& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

class ParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParityTest, IndexAndThreadsAreResultInvariant) {
  const size_t psi = GetParam();
  Rng rng(42 + psi);
  RandomDatabaseOptions gen;
  gen.num_sequences = 60;
  gen.min_length = 5;
  gen.max_length = 18;
  gen.alphabet_size = 8;
  gen.seed = 777;
  SequenceDatabase base = MakeRandomDatabase(gen);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 8),
                                    testutil::RandomSeq(&rng, 3, 8)};
  if (patterns[0] == patterns[1]) patterns.pop_back();

  for (auto make :
       {SanitizeOptions::HH, +[] { return SanitizeOptions::RR(5); }}) {
    SanitizeOptions reference = make();
    reference.psi = psi;
    reference.num_threads = 1;
    size_t reference_marks = 0;
    SequenceDatabase expected =
        RunWith(base, patterns, reference, &reference_marks);

    for (size_t threads : {1u, 2u, 4u, 9u}) {
      SanitizeOptions opts = make();
      opts.psi = psi;
      opts.num_threads = threads;
      size_t marks = 0;
      SequenceDatabase got = RunWith(base, patterns, opts, &marks);
      EXPECT_TRUE(SameContent(expected, got))
          << "psi=" << psi << " threads=" << threads;
      EXPECT_EQ(marks, reference_marks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PsiSweep, ParityTest,
                         ::testing::Values(0, 1, 3, 8, 25));

TEST(ParallelSanitizerTest, TrucksWorkloadParityAcrossThreads) {
  ExperimentWorkload w = MakeTrucksWorkload();
  SanitizeOptions serial = SanitizeOptions::HH();
  serial.num_threads = 1;
  size_t serial_marks = 0;
  SequenceDatabase expected =
      RunWith(w.db, w.sensitive, serial, &serial_marks);

  SanitizeOptions parallel = SanitizeOptions::HH();
  parallel.num_threads = 8;
  size_t parallel_marks = 0;
  SequenceDatabase got =
      RunWith(w.db, w.sensitive, parallel, &parallel_marks);

  EXPECT_EQ(serial_marks, parallel_marks);
  EXPECT_TRUE(SameContent(expected, got));
  for (const auto& p : w.sensitive) EXPECT_EQ(Support(p, got), 0u);
}

TEST(ParallelSanitizerTest, MoreThreadsThanVictimsIsFine) {
  SequenceDatabase db;
  db.AddFromNames({"a", "b"});
  std::vector<Sequence> patterns = {
      Sequence::FromNames(&db.alphabet(), {"a", "b"})};
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.num_threads = 64;
  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(Support(patterns[0], db), 0u);
}

}  // namespace
}  // namespace seqhide
