// Determinism suite for the parallel pipeline: Sanitize() must produce
// byte-identical databases, reports, and observability counters for any
// num_threads, across strategies and constraint shapes — and the
// incremental supports-after bookkeeping must equal a full-database
// rescan on randomized inputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/hide/sanitizer.h"
#include "src/match/constrained_count.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

bool SameContent(const SequenceDatabase& a, const SequenceDatabase& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

struct RunOutput {
  SequenceDatabase db;
  SanitizeReport report;
  obs::MetricsSnapshot metrics;
};

RunOutput RunOnce(const SequenceDatabase& base,
                  const std::vector<Sequence>& patterns,
                  const std::vector<ConstraintSpec>& constraints,
                  SanitizeOptions opts) {
  obs::MetricsRegistry::Default().Reset();
  RunOutput out;
  out.db = base;
  auto report = Sanitize(&out.db, patterns, constraints, opts);
  EXPECT_TRUE(report.ok()) << report.status();
  if (report.ok()) out.report = *report;
  out.metrics = obs::MetricsRegistry::Default().Snapshot();
  return out;
}

// Everything in the report that must be thread-count-invariant
// (threads_used and wall times are configuration/measurement, not
// results, and are excluded on purpose).
void ExpectSameReport(const SanitizeReport& a, const SanitizeReport& b,
                      const std::string& what) {
  EXPECT_EQ(a.marks_introduced, b.marks_introduced) << what;
  EXPECT_EQ(a.sequences_sanitized, b.sequences_sanitized) << what;
  EXPECT_EQ(a.sequences_supporting_before, b.sequences_supporting_before)
      << what;
  EXPECT_EQ(a.supports_before, b.supports_before) << what;
  EXPECT_EQ(a.supports_after, b.supports_after) << what;
  EXPECT_EQ(a.count_rows, b.count_rows) << what;
  EXPECT_EQ(a.verify_recount_rows, b.verify_recount_rows) << what;
  EXPECT_EQ(a.verify_rescan_rows, b.verify_rescan_rows) << what;
}

// Counters, gauges and histograms are all event totals — identical for
// every thread count. Spans carry wall-clock nanoseconds and are skipped.
void ExpectSameMetrics(const obs::MetricsSnapshot& a,
                       const obs::MetricsSnapshot& b,
                       const std::string& what) {
  EXPECT_EQ(a.counters, b.counters) << what;
  EXPECT_EQ(a.gauges, b.gauges) << what;
  ASSERT_EQ(a.histograms.size(), b.histograms.size()) << what;
  auto it_b = b.histograms.begin();
  for (const auto& [name, data] : a.histograms) {
    EXPECT_EQ(name, it_b->first) << what;
    EXPECT_EQ(data.count, it_b->second.count) << what << " " << name;
    EXPECT_EQ(data.sum, it_b->second.sum) << what << " " << name;
    EXPECT_EQ(data.buckets, it_b->second.buckets) << what << " " << name;
    ++it_b;
  }
}

struct Config {
  const char* name;
  SanitizeOptions opts;
  bool constrained;
};

std::vector<Config> Configs() {
  SanitizeOptions hh = SanitizeOptions::HH();
  hh.psi = 3;
  SanitizeOptions rr = SanitizeOptions::RR(99);
  rr.psi = 5;
  SanitizeOptions hh_psi2 = SanitizeOptions::HH();
  hh_psi2.psi = 2;
  return {
      {"HH/unconstrained", hh, false},
      {"RR/unconstrained", rr, false},
      {"HH/constrained", hh, true},
      {"RR/constrained", rr, true},
      {"HH/psi=2", hh_psi2, false},
  };
}

TEST(SanitizerDeterminismTest, ThreadCountIsInvisibleInEveryOutput) {
  // One Rng drives the database and the patterns (shared generator
  // convention from src/testing/generators.h).
  Rng rng(2024);
  SequenceDatabase base = testutil::RandomDb(&rng, /*rows=*/80,
                                             /*min_length=*/6,
                                             /*max_length=*/20,
                                             /*alphabet_size=*/6);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 6),
                                    testutil::RandomSeq(&rng, 3, 6)};
  if (patterns[0] == patterns[1]) patterns.pop_back();

  for (const Config& config : Configs()) {
    std::vector<ConstraintSpec> constraints;
    if (config.constrained) {
      constraints.assign(patterns.size(), ConstraintSpec::UniformGap(0, 4));
      constraints.back().SetMaxWindow(12);
    }

    SanitizeOptions reference_opts = config.opts;
    reference_opts.num_threads = 1;
    RunOutput reference = RunOnce(base, patterns, constraints, reference_opts);
    EXPECT_EQ(reference.report.threads_used, 1u);

    for (size_t threads : {2u, 8u}) {
      SanitizeOptions opts = config.opts;
      opts.num_threads = threads;
      RunOutput got = RunOnce(base, patterns, constraints, opts);
      const std::string what =
          std::string(config.name) + " threads=" + std::to_string(threads);
      EXPECT_TRUE(SameContent(reference.db, got.db)) << what;
      ExpectSameReport(reference.report, got.report, what);
      ExpectSameMetrics(reference.metrics, got.metrics, what);
      EXPECT_EQ(got.report.threads_used, threads) << what;
    }
  }
}

TEST(SanitizerDeterminismTest, IncrementalVerifyEqualsFullRescan) {
  // opts.verify = true makes Sanitize() itself cross-check the
  // incremental supports-after against a full rescan (Internal on
  // mismatch); this test additionally recomputes the supports from the
  // released database to pin the reported numbers to ground truth.
  for (uint64_t round = 0; round < 4; ++round) {
    Rng rng(100 + round);
    SequenceDatabase base =
        testutil::RandomDb(&rng, /*rows=*/50 + 10 * round, /*min_length=*/4,
                           /*max_length=*/16, /*alphabet_size=*/5);
    std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 5),
                                      testutil::RandomSeq(&rng, 3, 5)};
    if (patterns[0] == patterns[1]) patterns.pop_back();
    std::vector<ConstraintSpec> constraints;
    if (round % 2 == 1) {
      constraints.assign(patterns.size(), ConstraintSpec::UniformGap(0, 3));
    }

    for (bool random_local : {false, true}) {
      SanitizeOptions opts =
          random_local ? SanitizeOptions::RR(7 + round) : SanitizeOptions::HH();
      opts.psi = round;  // exercise psi = 0 and > 0
      opts.num_threads = 4;
      opts.verify = true;

      SequenceDatabase db = base;
      auto report = Sanitize(&db, patterns, constraints, opts);
      ASSERT_TRUE(report.ok()) << report.status();
      ASSERT_EQ(report->supports_after.size(), patterns.size());
      EXPECT_GT(report->verify_rescan_rows, 0u);

      for (size_t p = 0; p < patterns.size(); ++p) {
        const ConstraintSpec spec =
            constraints.empty() ? ConstraintSpec() : constraints[p];
        size_t support = 0;
        for (size_t t = 0; t < db.size(); ++t) {
          if (HasConstrainedMatch(patterns[p], spec, db[t])) ++support;
        }
        EXPECT_EQ(report->supports_after[p], support)
            << "round=" << round << " random_local=" << random_local
            << " pattern=" << p;
        EXPECT_LE(support, opts.psi);
      }
    }
  }
}

}  // namespace
}  // namespace seqhide
