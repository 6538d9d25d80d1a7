#include "src/eval/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/data/workload.h"
#include "src/eval/report.h"
#include "src/hide/sanitizer.h"
#include "src/mine/prefix_span.h"
#include "src/testing/set_metrics.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::Seq;

ExperimentWorkload TinyWorkload() {
  ExperimentWorkload w;
  w.name = "tiny";
  for (int i = 0; i < 5; ++i) w.db.AddFromNames({"a", "b", "c"});
  for (int i = 0; i < 3; ++i) w.db.AddFromNames({"a", "b", "a", "b"});
  for (int i = 0; i < 4; ++i) w.db.AddFromNames({"c", "d"});
  w.sensitive = {Seq(&w.db.alphabet(), "a b")};
  return w;
}

TEST(ExperimentTest, ValidatesOptions) {
  ExperimentWorkload w = TinyWorkload();
  SweepOptions opts;
  EXPECT_TRUE(RunSweep(w, opts).status().IsInvalidArgument());
  opts.psi_values = {0};
  EXPECT_TRUE(RunSweep(w, opts).status().IsInvalidArgument());
  opts.algorithms = {AlgorithmSpec::HH()};
  opts.random_runs = 0;
  EXPECT_TRUE(RunSweep(w, opts).status().IsInvalidArgument());
}

TEST(ExperimentTest, M1SweepShapes) {
  ExperimentWorkload w = TinyWorkload();
  SweepOptions opts;
  opts.psi_values = {0, 2, 4, 8};
  opts.algorithms = AlgorithmSpec::PaperFour();
  opts.random_runs = 5;
  auto result = RunSweep(w, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->cells.size(), 4u);
  ASSERT_EQ(result->cells[0].size(), 4u);

  // M1 decreases (weakly) in ψ for the deterministic HH algorithm.
  const auto& hh = result->cells[0];
  for (size_t i = 1; i < hh.size(); ++i) {
    EXPECT_LE(hh[i].m1, hh[i - 1].m1);
  }
  // ψ=8 exceeds the number of supporters => zero distortion everywhere.
  for (size_t a = 0; a < 4; ++a) {
    EXPECT_DOUBLE_EQ(result->cells[a][3].m1, 0.0);
  }
  // HH at ψ=0 does not distort more than RR (averaged).
  EXPECT_LE(result->cells[0][0].m1, result->cells[3][0].m1 + 1e-9);
  // M2/M3 are NaN when pattern measures are off.
  EXPECT_TRUE(std::isnan(hh[0].m2));
  EXPECT_TRUE(std::isnan(hh[0].m3));
}

TEST(ExperimentTest, PatternMeasuresComputedWhenRequested) {
  ExperimentWorkload w = TinyWorkload();
  SweepOptions opts;
  opts.psi_values = {2};
  opts.algorithms = {AlgorithmSpec::HH()};
  opts.compute_pattern_measures = true;
  auto result = RunSweep(w, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  const SweepCell& cell = result->cells[0][0];
  EXPECT_FALSE(std::isnan(cell.m2));
  EXPECT_FALSE(std::isnan(cell.m3));
  EXPECT_GE(cell.m2, 0.0);
  EXPECT_LE(cell.m2, 1.0);
  EXPECT_GE(cell.m3, 0.0);
  EXPECT_LE(cell.m3, 1.0);
}

// σ = ψ = |D| = 12 leaves F(D, σ) empty (no symbol is in every row): M2
// and M3 are undefined there, which leaves the cells NaN without failing
// the sweep.
TEST(ExperimentTest, UndefinedPatternMeasuresLeaveCellsNaN) {
  ExperimentWorkload w = TinyWorkload();
  SweepOptions opts;
  opts.psi_values = {2, 12};
  opts.algorithms = {AlgorithmSpec::HH(), AlgorithmSpec::RR()};
  opts.random_runs = 2;
  opts.compute_pattern_measures = true;
  auto result = RunSweep(w, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  for (size_t a = 0; a < 2; ++a) {
    EXPECT_FALSE(std::isnan(result->cells[a][0].m2));
    EXPECT_TRUE(std::isnan(result->cells[a][1].m2));
    EXPECT_TRUE(std::isnan(result->cells[a][1].m3));
    EXPECT_DOUBLE_EQ(result->cells[a][1].m1, 0.0);
  }
}

// Every HH and RR cell's M2/M3, derived from F(D, σ) through the
// sanitize overlay, equals bit for bit the mean of the set-based oracles
// on a mined F(D', σ) of an in-place sanitized copy, run by run with the
// sweep's seeds.
TEST(ExperimentTest, PatternMeasuresEqualMinedOracles) {
  ExperimentWorkload w;
  w.name = "random";
  w.db = MakeRandomDatabase({
      .num_sequences = 40,
      .min_length = 4,
      .max_length = 12,
      .alphabet_size = 6,
      .repeat_bias = 0.2,
      .seed = 7,
  });
  w.sensitive = {Sequence{0, 1}, Sequence{2, 3, 1}};
  SweepOptions opts;
  opts.psi_values = {0, 2, 5};
  opts.algorithms = {AlgorithmSpec::HH(), AlgorithmSpec::RR()};
  opts.random_runs = 3;
  opts.compute_pattern_measures = true;
  opts.miner_max_length = 3;
  auto result = RunSweep(w, opts);
  ASSERT_TRUE(result.ok()) << result.status();

  size_t defined = 0;
  for (size_t pi = 0; pi < opts.psi_values.size(); ++pi) {
    const size_t psi = opts.psi_values[pi];
    MinerOptions miner;
    miner.min_support = std::max<size_t>(psi, 1);
    miner.max_length = opts.miner_max_length;
    auto before = MineFrequentSequences(w.db, miner);
    ASSERT_TRUE(before.ok());
    for (size_t ai = 0; ai < opts.algorithms.size(); ++ai) {
      const AlgorithmSpec& alg = opts.algorithms[ai];
      const size_t runs = alg.IsRandomized() ? opts.random_runs : 1;
      double m2_sum = 0.0;
      double m3_sum = 0.0;
      size_t m2_runs = 0;
      size_t m3_runs = 0;
      for (size_t run = 0; run < runs; ++run) {
        SanitizeOptions sanitize;
        sanitize.local = alg.local;
        sanitize.global = alg.global;
        sanitize.psi = psi;
        sanitize.seed = opts.base_seed + 7919 * run + 104729 * ai;
        SequenceDatabase copy = w.db;
        ASSERT_TRUE(Sanitize(&copy, w.sensitive, sanitize).ok());
        auto after = MineFrequentSequences(copy, miner);
        ASSERT_TRUE(after.ok());
        auto m2 = proptest::OracleMeasureM2(*before, *after);
        auto m3 = proptest::OracleMeasureM3(*before, *after);
        if (m2.ok()) {
          m2_sum += *m2;
          ++m2_runs;
        }
        if (m3.ok()) {
          m3_sum += *m3;
          ++m3_runs;
        }
      }
      const SweepCell& cell = result->cells[ai][pi];
      SCOPED_TRACE(alg.label + " psi=" + std::to_string(psi));
      ASSERT_GT(m2_runs, 0u);
      EXPECT_EQ(cell.m2, m2_sum / static_cast<double>(m2_runs));
      if (m3_runs > 0) {
        EXPECT_EQ(cell.m3, m3_sum / static_cast<double>(m3_runs));
        ++defined;
      } else {
        EXPECT_TRUE(std::isnan(cell.m3));
      }
    }
  }
  EXPECT_GT(defined, 0u);
}

TEST(ExperimentTest, ConstraintReducesDistortion) {
  // Build sequences where the only occurrences of the sensitive pattern
  // are far apart; a tight window makes them non-sensitive so constrained
  // runs mark nothing.
  ExperimentWorkload w;
  w.name = "gap";
  for (int i = 0; i < 4; ++i) {
    w.db.AddFromNames({"a", "x", "x", "x", "b"});
  }
  w.sensitive = {Seq(&w.db.alphabet(), "a b")};

  AlgorithmSpec unconstrained = AlgorithmSpec::HH();
  AlgorithmSpec windowed = AlgorithmSpec::HH();
  windowed.label = "HH w<=3";
  windowed.constraint = ConstraintSpec::Window(3);

  SweepOptions opts;
  opts.psi_values = {0};
  opts.algorithms = {unconstrained, windowed};
  auto result = RunSweep(w, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->cells[0][0].m1, 0.0);
  EXPECT_DOUBLE_EQ(result->cells[1][0].m1, 0.0);
}

TEST(ExperimentTest, DeterministicAcrossCalls) {
  ExperimentWorkload w = TinyWorkload();
  SweepOptions opts;
  opts.psi_values = {0, 3};
  opts.algorithms = {AlgorithmSpec::RR()};
  opts.random_runs = 3;
  opts.base_seed = 5;
  auto a = RunSweep(w, opts);
  auto b = RunSweep(w, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_DOUBLE_EQ(a->cells[0][p].m1, b->cells[0][p].m1);
  }
}

TEST(ReportTest, TableContainsLabelsAndValues) {
  ExperimentWorkload w = TinyWorkload();
  SweepOptions opts;
  opts.psi_values = {0, 2};
  opts.algorithms = {AlgorithmSpec::HH(), AlgorithmSpec::RR()};
  opts.random_runs = 2;
  auto result = RunSweep(w, opts);
  ASSERT_TRUE(result.ok());
  std::string table = FormatSweepTable(*result, Measure::kM1, "fig test");
  EXPECT_NE(table.find("fig test"), std::string::npos);
  EXPECT_NE(table.find("HH"), std::string::npos);
  EXPECT_NE(table.find("RR"), std::string::npos);
  EXPECT_NE(table.find("psi"), std::string::npos);
}

TEST(ReportTest, CsvHasHeaderAndRows) {
  ExperimentWorkload w = TinyWorkload();
  SweepOptions opts;
  opts.psi_values = {0, 2, 4};
  opts.algorithms = {AlgorithmSpec::HH()};
  auto result = RunSweep(w, opts);
  ASSERT_TRUE(result.ok());
  std::ostringstream out;
  WriteSweepCsv(*result, Measure::kM1, out);
  std::string csv = out.str();
  EXPECT_EQ(csv.substr(0, 7), "psi,HH\n");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(ReportTest, MeasureNames) {
  EXPECT_EQ(ToString(Measure::kM1), "M1");
  EXPECT_EQ(ToString(Measure::kM2), "M2");
  EXPECT_EQ(ToString(Measure::kM3), "M3");
}

}  // namespace
}  // namespace seqhide
